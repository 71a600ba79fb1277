//! Differential property tests: the CDCL solver against the brute-force
//! enumeration oracle on random CNF instances of up to 20 variables — plain
//! satisfiability, satisfiability under assumptions, one solver across a
//! sequence of prefix-sharing assumption sets, and the Sinz cardinality
//! encodings. Whenever the solver answers SAT, the model it produced is
//! checked against every clause and assumption; whenever it answers UNSAT,
//! the enumerator must agree that no model exists, and the solver's
//! failed-assumption core must be a subset of the assumptions that the
//! formula refutes on its own. Instances too large to enumerate, where
//! calls run into restarts and exhausted budgets, take a fresh solver per
//! call as the reference instead.

use drcshap_xsat::{brute_force, Cnf, Lit, SolveBudget, SolveOutcome, Solver};
use proptest::prelude::*;

const MAX_VARS: usize = 20;

/// Builds a CNF over `n_vars` variables from raw `(var, negated)` pairs,
/// mapping variable indices into range. Empty clauses are legal input.
fn build_cnf(n_vars: usize, raw_clauses: &[Vec<(u32, bool)>]) -> Cnf {
    let mut cnf = Cnf::new();
    for _ in 0..n_vars {
        cnf.new_var();
    }
    for raw in raw_clauses {
        let lits: Vec<Lit> =
            raw.iter().map(|&(v, neg)| Lit::with_sign(v % n_vars as u32, !neg)).collect();
        cnf.add_clause(&lits);
    }
    cnf
}

fn literals(n_vars: usize, raw: &[(u32, bool)]) -> Vec<Lit> {
    raw.iter().map(|&(v, neg)| Lit::with_sign(v % n_vars as u32, !neg)).collect()
}

fn check_against_oracle(cnf: &Cnf, assumptions: &[Lit]) -> Result<(), TestCaseError> {
    check_call(&mut Solver::from_cnf(cnf), cnf, assumptions)
}

/// One `solve` on `solver`, whatever calls came before, checked against
/// the enumerator.
fn check_call(solver: &mut Solver, cnf: &Cnf, assumptions: &[Lit]) -> Result<(), TestCaseError> {
    let verdict = solver.solve(assumptions, &SolveBudget::unlimited());
    let oracle = brute_force(cnf, assumptions);
    match verdict {
        SolveOutcome::Sat => {
            prop_assert!(oracle.is_some(), "solver says SAT, enumerator finds no model");
            for &a in assumptions {
                prop_assert!(a.eval(solver.value(a.var())), "assumption {a} violated in model");
            }
            for clause in cnf.clauses() {
                prop_assert!(
                    clause.iter().any(|l| l.eval(solver.value(l.var()))),
                    "model does not satisfy clause"
                );
            }
        }
        SolveOutcome::Unsat => {
            prop_assert!(oracle.is_none(), "solver says UNSAT, enumerator found a model");
            let failed = solver.failed_assumptions();
            for l in failed {
                prop_assert!(assumptions.contains(l), "core literal {l} is not an assumption");
            }
            prop_assert!(
                brute_force(cnf, failed).is_none(),
                "the formula does not refute the core {:?} on its own",
                failed
            );
        }
        SolveOutcome::BudgetExhausted => {
            prop_assert!(false, "unlimited budget cannot exhaust");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random CNF, no assumptions: verdicts agree with full enumeration and
    /// SAT models actually satisfy the formula.
    #[test]
    fn solver_matches_brute_force(
        n_vars in 1usize..=MAX_VARS,
        raw in prop::collection::vec(
            prop::collection::vec((0u32..MAX_VARS as u32, any::<bool>()), 1..4),
            0..40,
        ),
    ) {
        let cnf = build_cnf(n_vars, &raw);
        check_against_oracle(&cnf, &[])?;
    }

    /// Random CNF under random assumptions — the mode the abductive
    /// deletion loop exercises hundreds of times per explanation.
    #[test]
    fn solver_matches_brute_force_under_assumptions(
        n_vars in 1usize..=12,
        raw in prop::collection::vec(
            prop::collection::vec((0u32..12u32, any::<bool>()), 1..4),
            0..32,
        ),
        raw_assumptions in prop::collection::vec((0u32..12u32, any::<bool>()), 0..6),
    ) {
        let cnf = build_cnf(n_vars, &raw);
        // Assumptions may repeat or contradict each other — both are legal.
        check_against_oracle(&cnf, &literals(n_vars, &raw_assumptions))?;
    }

    /// One solver across a sequence of assumption sets, each keeping a
    /// prefix of the one before and appending fresh literals — the pattern
    /// whose shared decision levels the solver keeps between calls.
    #[test]
    fn one_solver_across_prefix_sharing_assumption_sets(
        n_vars in 1usize..=12,
        raw in prop::collection::vec(
            prop::collection::vec((0u32..12u32, any::<bool>()), 1..4),
            0..32,
        ),
        steps in prop::collection::vec(
            (0usize..10, prop::collection::vec((0u32..12u32, any::<bool>()), 0..4)),
            1..12,
        ),
    ) {
        let cnf = build_cnf(n_vars, &raw);
        let mut solver = Solver::from_cnf(&cnf);
        let mut assumptions = Vec::new();
        for (keep, extra) in &steps {
            assumptions.truncate(*keep);
            assumptions.extend(literals(n_vars, extra));
            check_call(&mut solver, &cnf, &assumptions)?;
        }
    }

    /// Learned clauses from earlier calls must never change later verdicts:
    /// solve the same instance twice under the same assumptions, and
    /// interleave with an assumption-free call.
    #[test]
    fn incremental_calls_are_verdict_stable(
        n_vars in 1usize..=10,
        raw in prop::collection::vec(
            prop::collection::vec((0u32..10u32, any::<bool>()), 1..4),
            0..24,
        ),
        raw_assumptions in prop::collection::vec((0u32..10u32, any::<bool>()), 0..4),
    ) {
        let cnf = build_cnf(n_vars, &raw);
        let assumptions = literals(n_vars, &raw_assumptions);
        let mut solver = Solver::from_cnf(&cnf);
        let first = solver.solve(&assumptions, &SolveBudget::unlimited());
        let free = solver.solve(&[], &SolveBudget::unlimited());
        let second = solver.solve(&assumptions, &SolveBudget::unlimited());
        prop_assert_eq!(first, second, "verdict drifted across incremental calls");
        if first == SolveOutcome::Sat {
            prop_assert_eq!(free, SolveOutcome::Sat, "relaxing assumptions cannot lose SAT");
        }
    }

    /// The Sinz cardinality encodings count correctly: with all inputs
    /// fixed by assumptions, at-most-k is satisfiable iff the popcount
    /// obeys the bound (auxiliary variables are free for the solver).
    #[test]
    fn cardinality_encodings_count(
        n in 1usize..=8,
        k in 0usize..=9,
        bits in 0u32..256,
        guarded in any::<bool>(),
    ) {
        let mut cnf = Cnf::new();
        let xs: Vec<Lit> = (0..n).map(|_| Lit::pos(cnf.new_var())).collect();
        let guard = if guarded { Some(Lit::pos(cnf.new_var())) } else { None };
        cnf.add_at_most_k(&xs, k, guard);
        let count = (0..n).filter(|&i| bits >> i & 1 == 1).count();
        let mut assumptions: Vec<Lit> =
            (0..n).map(|i| Lit::with_sign(xs[i].var(), bits >> i & 1 == 1)).collect();
        if let Some(g) = guard {
            // Unguarded by assumption: any popcount is fine.
            let mut solver = Solver::from_cnf(&cnf);
            prop_assert_eq!(
                solver.solve(&assumptions, &SolveBudget::unlimited()),
                SolveOutcome::Sat,
                "inactive guard must not constrain"
            );
            assumptions.push(g);
        }
        let mut solver = Solver::from_cnf(&cnf);
        let verdict = solver.solve(&assumptions, &SolveBudget::unlimited());
        let want = if count <= k { SolveOutcome::Sat } else { SolveOutcome::Unsat };
        prop_assert_eq!(verdict, want, "n={} k={} count={}", n, k, count);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random 3-SAT over 120 variables near the satisfiability threshold,
    /// so calls hit real search: restarts, and conflict budgets that run
    /// out mid-call. One solver across prefix-sharing assumption sets must
    /// agree with a fresh solver on every verdict it reaches, its models
    /// must satisfy clauses and assumptions, and a fresh solver must
    /// refute every core it reports.
    #[test]
    fn one_solver_agrees_with_fresh_solvers_on_hard_instances(
        raw in prop::collection::vec(
            prop::collection::vec((0u32..120u32, any::<bool>()), 3),
            511,
        ),
        steps in prop::collection::vec(
            (0usize..12, prop::collection::vec((0u32..120u32, any::<bool>()), 0..4), 0u64..60),
            12,
        ),
    ) {
        let cnf = build_cnf(120, &raw);
        let fresh = |assumptions: &[Lit]| {
            Solver::from_cnf(&cnf).solve(assumptions, &SolveBudget::unlimited())
        };
        let mut solver = Solver::from_cnf(&cnf);
        let mut assumptions = Vec::new();
        for (keep, extra, budget) in &steps {
            assumptions.truncate(*keep);
            assumptions.extend(literals(120, extra));
            // Two calls in three get a budget of 1..=40 conflicts.
            let budget = if *budget < 40 {
                SolveBudget::conflicts(1 + budget)
            } else {
                SolveBudget::unlimited()
            };
            let verdict = solver.solve(&assumptions, &budget);
            if verdict == SolveOutcome::BudgetExhausted {
                continue;
            }
            prop_assert_eq!(verdict, fresh(&assumptions), "verdict differs from a fresh solver");
            if verdict == SolveOutcome::Sat {
                for &a in &assumptions {
                    prop_assert!(a.eval(solver.value(a.var())), "assumption {a} violated in model");
                }
                for clause in cnf.clauses() {
                    prop_assert!(
                        clause.iter().any(|l| l.eval(solver.value(l.var()))),
                        "model does not satisfy clause"
                    );
                }
            } else {
                let failed = solver.failed_assumptions().to_vec();
                for l in &failed {
                    prop_assert!(assumptions.contains(l), "core literal {l} is not an assumption");
                }
                prop_assert_eq!(fresh(&failed), SolveOutcome::Unsat, "core {:?} is satisfiable", failed);
            }
        }
    }
}
