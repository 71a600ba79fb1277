//! A small, self-contained CDCL SAT solver.
//!
//! The classic architecture, no external dependencies:
//!
//! - **Two-watched-literal propagation**: each clause watches two of its
//!   literals; only when a watched literal becomes false is the clause
//!   visited, so propagation cost tracks the number of clauses that can
//!   actually produce a unit or a conflict.
//! - **1UIP clause learning**: every conflict is analyzed back to the first
//!   unique implication point of the current decision level; the learned
//!   clause is asserting after backjumping to its second-highest level.
//! - **VSIDS-style activity**: variables touched by conflict analysis are
//!   bumped and decay exponentially; decisions pick the highest-activity
//!   unassigned variable from an indexed max-heap with index-order
//!   tie-breaking, so runs are fully deterministic.
//! - **Luby restarts** with phase saving, so restarts reorder the search
//!   without forgetting polarities.
//! - **Solving under assumptions**: assumptions are planted as the first
//!   decisions; an assumption that propagates to false proves UNSAT under
//!   those assumptions without touching the clause database, and the
//!   subset of assumptions that implied it is kept as the final conflict
//!   ([`Solver::failed_assumptions`], MiniSat's `analyzeFinal`). This is
//!   what the abductive engine's deletion loop leans on — one shared
//!   formula, many cheap incremental calls.
//! - **Trail reuse**: decision level `k` of an assumption run holds the
//!   `k`-th assumption, so a call keeps the levels of the assumption prefix
//!   it shares with the previous call instead of re-planting them, and a
//!   restart goes back to the last assumption level rather than level 0.
//! - **Decision variables**, as MiniSat's `setDecisionVar`: search may be
//!   restricted to a subset of the variables. The solver then answers SAT
//!   at the first conflict-free propagation fixpoint that assigns every
//!   decision variable, and [`Solver::value`] reads each variable still
//!   unassigned as false. That is exact only for formulas where this
//!   completion satisfies every clause. The forest encoding is one: once
//!   its interval literals are set, path clauses and each tree's
//!   at-least-one-leaf clause fix every leaf, the leaves fix the votes,
//!   and every Sinz counter clause has at most one positive register
//!   literal (the selector guards occur only negated), so a clause still
//!   open at the fixpoint holds an unassigned negative literal. UNSAT
//!   answers come from clause learning and stay exact for any decision
//!   set. The default is every variable; only the abductive engine
//!   restricts it, which on the benchmark's 25-tree depth-5 forest halves
//!   the time per explanation.
//!
//! Every `solve` call honours a [`SolveBudget`] (conflict cap and optional
//! wall-clock deadline) and returns [`SolveOutcome::BudgetExhausted`]
//! instead of stalling, which upper layers surface as the typed
//! `DrcshapError::ExplanationTimeout`.

use std::time::Instant;

use drcshap_telemetry as telemetry;

use crate::cnf::{Cnf, Lit};

/// Resource limits for one `solve` call.
#[derive(Debug, Clone, Copy)]
pub struct SolveBudget {
    /// Conflicts allowed in this call (`u64::MAX` = unlimited).
    pub max_conflicts: u64,
    /// Wall-clock cutoff; checked every conflict and decision. `None` keeps
    /// the call fully deterministic (CLI path).
    pub deadline: Option<Instant>,
}

impl SolveBudget {
    /// No limits at all.
    pub fn unlimited() -> Self {
        Self { max_conflicts: u64::MAX, deadline: None }
    }

    /// A deterministic conflict-count budget.
    pub fn conflicts(max_conflicts: u64) -> Self {
        Self { max_conflicts, deadline: None }
    }
}

/// What a `solve` call concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A satisfying assignment exists (readable via [`Solver::value`]).
    Sat,
    /// No satisfying assignment under the given assumptions.
    Unsat,
    /// The budget ran out before a verdict.
    BudgetExhausted,
}

/// Cumulative search statistics across every `solve` call on this solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Branching decisions made.
    pub decisions: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned.
    pub learnt: u64,
}

const UNASSIGNED: i8 = 0;
const NO_REASON: u32 = u32::MAX;

/// Indexed binary max-heap over variables ordered by activity, ties broken
/// toward lower variable indices — the deterministic VSIDS order.
#[derive(Debug, Clone, Default)]
struct VarOrder {
    heap: Vec<u32>,
    /// Variable -> position in `heap`, or `u32::MAX` when absent.
    pos: Vec<u32>,
}

impl VarOrder {
    /// A heap holding exactly the variables `v` with `members[v]`.
    fn of(members: &[bool], activity: &[f64]) -> Self {
        let mut order = Self { heap: Vec::new(), pos: vec![u32::MAX; members.len()] };
        for (v, _) in members.iter().enumerate().filter(|(_, &m)| m) {
            order.push(activity, v as u32);
        }
        order
    }

    fn before(activity: &[f64], a: u32, b: u32) -> bool {
        activity[a as usize] > activity[b as usize]
            || (activity[a as usize] == activity[b as usize] && a < b)
    }

    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != u32::MAX
    }

    fn percolate_up(&mut self, activity: &[f64], mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::before(activity, v, self.heap[parent]) {
                self.heap[i] = self.heap[parent];
                self.pos[self.heap[i] as usize] = i as u32;
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn percolate_down(&mut self, activity: &[f64], mut i: usize) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && Self::before(activity, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            if Self::before(activity, self.heap[child], v) {
                self.heap[i] = self.heap[child];
                self.pos[self.heap[i] as usize] = i as u32;
                i = child;
            } else {
                break;
            }
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn push(&mut self, activity: &[f64], v: u32) {
        if self.contains(v) {
            return;
        }
        self.heap.push(v);
        self.pos[v as usize] = (self.heap.len() - 1) as u32;
        self.percolate_up(activity, self.heap.len() - 1);
    }

    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top as usize] = u32::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.percolate_down(activity, 0);
        }
        Some(top)
    }

    fn bumped(&mut self, activity: &[f64], v: u32) {
        let p = self.pos[v as usize];
        if p != u32::MAX {
            self.percolate_up(activity, p as usize);
        }
    }
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
}

/// The CDCL solver. Build one per formula with [`Solver::from_cnf`] (or
/// [`Solver::new`] + [`Solver::add_clause`]), then call [`Solver::solve`]
/// any number of times under different assumption sets — learned clauses
/// persist across calls and keep later calls cheaper.
#[derive(Debug, Clone)]
pub struct Solver {
    n_vars: u32,
    clauses: Vec<Clause>,
    /// Per-literal watch lists: indices into `clauses`.
    watches: Vec<Vec<u32>>,
    /// Per-variable assignment: +1 true, -1 false, 0 unassigned.
    assign: Vec<i8>,
    /// Per-variable decision level (valid when assigned).
    level: Vec<u32>,
    /// Per-variable implying clause index, or `NO_REASON` for decisions.
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    /// Per-variable: whether search may branch on it. All true unless
    /// [`Solver::set_decision_vars`] narrowed the set.
    decision: Vec<bool>,
    /// Saved phase per variable, kept across restarts.
    phase: Vec<bool>,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// False once an empty clause or a level-0 conflict is derived.
    ok: bool,
    /// Pending top-level units not yet propagated.
    pending_units: Vec<Lit>,
    /// The last call's assumptions. Decision level `k ≤ len` holds
    /// `assumptions[k - 1]`, which is what lets the next call keep the
    /// levels of a shared prefix.
    assumptions: Vec<Lit>,
    /// The final conflict of the last UNSAT verdict.
    failed: Vec<Lit>,
    stats: SolverStats,
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const ACTIVITY_RESCALE: f64 = 1e100;
const LUBY_UNIT: u64 = 128;

/// The Luby restart sequence 1,1,2,1,1,2,4,... (Luby, Sinclair, Zuckerman).
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing index i (length 2^seq − 1),
    // then descend into it.
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1 << seq
}

impl Solver {
    /// An empty solver over `n_vars` variables.
    pub fn new(n_vars: u32) -> Self {
        let decision = vec![true; n_vars as usize];
        let activity = vec![0.0; n_vars as usize];
        Self {
            n_vars,
            clauses: Vec::new(),
            watches: vec![Vec::new(); 2 * n_vars as usize],
            assign: vec![UNASSIGNED; n_vars as usize],
            level: vec![0; n_vars as usize],
            reason: vec![NO_REASON; n_vars as usize],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            order: VarOrder::of(&decision, &activity),
            activity,
            var_inc: 1.0,
            decision,
            phase: vec![false; n_vars as usize],
            seen: vec![false; n_vars as usize],
            ok: true,
            pending_units: Vec::new(),
            assumptions: Vec::new(),
            failed: Vec::new(),
            stats: SolverStats::default(),
        }
    }

    /// A solver loaded with every clause of `cnf`.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut solver = Self::new(cnf.n_vars());
        for clause in cnf.clauses() {
            solver.add_clause(clause);
        }
        solver
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Variables this solver was created over.
    pub fn n_vars(&self) -> u32 {
        self.n_vars
    }

    /// The value of `var` in the last satisfying assignment. Only
    /// meaningful immediately after a [`SolveOutcome::Sat`] return. A
    /// variable the search left unassigned reads `false`; under restricted
    /// branching (see the module docs) that completion is part of the
    /// model.
    pub fn value(&self, var: u32) -> bool {
        self.assign[var as usize] > 0
    }

    /// After a [`SolveOutcome::Unsat`] return: a subset of that call's
    /// assumptions that the formula already refutes on its own. Empty when
    /// the formula is unsatisfiable without any assumption.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    /// Restricts branching to `vars`: search decides only these, and a
    /// conflict-free fixpoint that assigns every one of them is reported
    /// SAT, with each variable still unassigned reading false in
    /// [`Solver::value`]. That answer is exact only for a formula whose
    /// clauses that fixpoint satisfies once those variables are false —
    /// the completion property the forest encoding has (module docs).
    /// UNSAT answers stay exact for any set.
    pub(crate) fn set_decision_vars(&mut self, vars: impl IntoIterator<Item = u32>) {
        self.decision.fill(false);
        for v in vars {
            self.decision[v as usize] = true;
        }
        self.order = VarOrder::of(&self.decision, &self.activity);
    }

    /// Makes the next decision on `lit`'s variable try `lit` first. Phase
    /// saving overwrites it whenever the variable is assigned.
    pub(crate) fn set_phase(&mut self, lit: Lit) {
        self.phase[lit.var() as usize] = !lit.is_neg();
    }

    fn lit_value(&self, l: Lit) -> i8 {
        let a = self.assign[l.var() as usize];
        if l.is_neg() {
            -a
        } else {
            a
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause, normalizing out duplicate literals and tautologies.
    /// Unit clauses are queued for top-level propagation at the next
    /// `solve`; the empty clause makes the solver permanently UNSAT.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        // The kept trail of the last call may contradict the new clause.
        self.cancel_until(0);
        let mut lits = lits.to_vec();
        lits.sort_unstable();
        lits.dedup();
        if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
            return; // tautology: contains l and ¬l
        }
        match lits.len() {
            0 => self.ok = false,
            1 => self.pending_units.push(lits[0]),
            _ => self.attach(Clause { lits }),
        }
    }

    fn attach(&mut self, clause: Clause) {
        let idx = self.clauses.len() as u32;
        self.watches[clause.lits[0].index()].push(idx);
        self.watches[clause.lits[1].index()].push(idx);
        self.clauses.push(clause);
    }

    fn enqueue(&mut self, l: Lit, reason: u32) -> bool {
        match self.lit_value(l) {
            1 => true,
            -1 => false,
            _ => {
                let v = l.var() as usize;
                self.assign[v] = if l.is_neg() { -1 } else { 1 };
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.phase[v] = !l.is_neg();
                self.trail.push(l);
                true
            }
        }
    }

    /// Propagates everything on the trail; returns the index of a
    /// conflicting clause, or `None` when a fixpoint is reached.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negate();
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            'clauses: while i < ws.len() {
                let ci = ws[i];
                // Make sure the false literal is at position 1.
                if self.clauses[ci as usize].lits[0] == false_lit {
                    self.clauses[ci as usize].lits.swap(0, 1);
                }
                let first = self.clauses[ci as usize].lits[0];
                if self.lit_value(first) == 1 {
                    i += 1;
                    continue; // clause already satisfied; keep the watch
                }
                // Look for a non-false literal to watch instead.
                for k in 2..self.clauses[ci as usize].lits.len() {
                    if self.lit_value(self.clauses[ci as usize].lits[k]) != -1 {
                        self.clauses[ci as usize].lits.swap(1, k);
                        let new_watch = self.clauses[ci as usize].lits[1];
                        self.watches[new_watch.index()].push(ci);
                        ws.swap_remove(i);
                        continue 'clauses;
                    }
                }
                // Clause is unit (or conflicting) under the assignment.
                i += 1;
                if !self.enqueue(first, ci) {
                    self.watches[false_lit.index()] = ws;
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
            }
            self.watches[false_lit.index()] = ws;
        }
        None
    }

    fn bump(&mut self, v: u32) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > ACTIVITY_RESCALE {
            for a in &mut self.activity {
                *a /= ACTIVITY_RESCALE;
            }
            self.var_inc /= ACTIVITY_RESCALE;
        }
        self.order.bumped(&self.activity, v);
    }

    /// 1UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // placeholder for the asserting literal
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let current = self.decision_level();
        loop {
            let clause = &self.clauses[confl as usize];
            let start = usize::from(p.is_some()); // skip the implied literal of a reason clause
            let lits: Vec<Lit> = clause.lits[start..].to_vec();
            for q in lits {
                let v = q.var();
                if !self.seen[v as usize] && self.level[v as usize] > 0 {
                    self.seen[v as usize] = true;
                    self.bump(v);
                    if self.level[v as usize] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = pl.negate();
                break;
            }
            confl = self.reason[pl.var() as usize];
            debug_assert_ne!(confl, NO_REASON, "non-decision literal must have a reason");
            p = Some(pl);
        }
        for l in &learnt[1..] {
            self.seen[l.var() as usize] = false;
        }
        // Backjump to the second-highest level in the learned clause.
        let mut back = 0u32;
        let mut at = 1usize;
        for (i, l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var() as usize];
            if lv > back {
                back = lv;
                at = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, at);
        }
        (learnt, back)
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        for i in (bound..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assign[v as usize] = UNASSIGNED;
            self.reason[v as usize] = NO_REASON;
            if self.decision[v as usize] {
                self.order.push(&self.activity, v);
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = bound;
    }

    /// MiniSat's `analyzeFinal`: appends to the (cleared) `failed` the
    /// assumption `a`, found false on the trail, and every assumption that
    /// implied `¬a`. Assumptions are planted before any search decision, so
    /// each decision on the trail at this point is an assumption.
    fn analyze_final(&mut self, a: Lit) {
        self.failed.push(a);
        let v = a.var() as usize;
        if self.level[v] == 0 {
            return;
        }
        self.seen[v] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            if !self.seen[l.var() as usize] {
                continue;
            }
            self.seen[l.var() as usize] = false;
            match self.reason[l.var() as usize] {
                NO_REASON => self.failed.push(l),
                r => {
                    for q in &self.clauses[r as usize].lits[1..] {
                        if self.level[q.var() as usize] > 0 {
                            self.seen[q.var() as usize] = true;
                        }
                    }
                }
            }
        }
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn pick_branch_var(&mut self) -> Option<u32> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v as usize] == UNASSIGNED {
                return Some(v);
            }
        }
        None
    }

    /// Solves under `assumptions` within `budget`.
    ///
    /// [`SolveOutcome::Unsat`] means unsatisfiable *under the assumptions*
    /// (the formula itself may still be satisfiable); learned clauses carry
    /// over to later calls either way.
    pub fn solve(&mut self, assumptions: &[Lit], budget: &SolveBudget) -> SolveOutcome {
        let _span = telemetry::span("xsat/solve");
        self.failed.clear();
        // Keep the levels of the assumption prefix shared with the last
        // call; every level above it is cancelled.
        let shared =
            self.assumptions.iter().zip(assumptions).take_while(|(old, new)| old == new).count();
        self.cancel_until(shared as u32);
        self.assumptions.clear();
        self.assumptions.extend_from_slice(assumptions);
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        // Flush queued top-level units. Only a conflict at level 0 refutes
        // the formula itself.
        if self.decision_level() == 0 {
            let pending = std::mem::take(&mut self.pending_units);
            for unit in pending {
                if !self.enqueue(unit, NO_REASON) {
                    self.ok = false;
                    return SolveOutcome::Unsat;
                }
            }
            if self.propagate().is_some() {
                self.ok = false;
                return SolveOutcome::Unsat;
            }
        }
        let start_conflicts = self.stats.conflicts;
        let mut restart_num = 0u64;
        let mut restart_limit = LUBY_UNIT * luby(restart_num);
        let mut conflicts_since_restart = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                telemetry::counter("xsat/conflicts", 1);
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveOutcome::Unsat;
                }
                let (learnt, back) = self.analyze(confl);
                self.cancel_until(back);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    if !self.enqueue(asserting, NO_REASON) {
                        self.ok = false;
                        return SolveOutcome::Unsat;
                    }
                } else {
                    let idx = self.clauses.len() as u32;
                    self.attach(Clause { lits: learnt });
                    self.stats.learnt += 1;
                    let ok = self.enqueue(asserting, idx);
                    debug_assert!(ok, "a learned clause is asserting after backjumping");
                }
                self.var_inc *= VAR_DECAY;
                if self.stats.conflicts - start_conflicts >= budget.max_conflicts {
                    return SolveOutcome::BudgetExhausted;
                }
                if let Some(deadline) = budget.deadline {
                    if Instant::now() >= deadline {
                        return SolveOutcome::BudgetExhausted;
                    }
                }
                if conflicts_since_restart >= restart_limit {
                    self.stats.restarts += 1;
                    restart_num += 1;
                    restart_limit = LUBY_UNIT * luby(restart_num);
                    conflicts_since_restart = 0;
                    // Restart the search, not the assumptions.
                    self.cancel_until(assumptions.len() as u32);
                }
            } else {
                // Plant the next pending assumption, or branch.
                let level = self.decision_level() as usize;
                if level < assumptions.len() {
                    let a = assumptions[level];
                    match self.lit_value(a) {
                        1 => self.new_decision_level(), // already holds; empty level keeps indexing aligned
                        -1 => {
                            self.analyze_final(a);
                            return SolveOutcome::Unsat;
                        }
                        _ => {
                            self.new_decision_level();
                            let ok = self.enqueue(a, NO_REASON);
                            debug_assert!(ok);
                        }
                    }
                } else {
                    match self.pick_branch_var() {
                        None => return SolveOutcome::Sat,
                        Some(v) => {
                            self.stats.decisions += 1;
                            if let Some(deadline) = budget.deadline {
                                if Instant::now() >= deadline {
                                    return SolveOutcome::BudgetExhausted;
                                }
                            }
                            self.new_decision_level();
                            let ok =
                                self.enqueue(Lit::with_sign(v, self.phase[v as usize]), NO_REASON);
                            debug_assert!(ok);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::brute_force;

    fn lit(i: i32) -> Lit {
        if i > 0 {
            Lit::pos((i - 1) as u32)
        } else {
            Lit::neg((-i - 1) as u32)
        }
    }

    fn cnf_of(n_vars: u32, clauses: &[&[i32]]) -> Cnf {
        let mut cnf = Cnf::new();
        for _ in 0..n_vars {
            cnf.new_var();
        }
        for c in clauses {
            let lits: Vec<Lit> = c.iter().map(|&i| lit(i)).collect();
            cnf.add_clause(&lits);
        }
        cnf
    }

    fn model_satisfies(solver: &Solver, cnf: &Cnf, assumptions: &[Lit]) -> bool {
        assumptions.iter().all(|a| a.eval(solver.value(a.var())))
            && cnf.clauses().iter().all(|c| c.iter().any(|l| l.eval(solver.value(l.var()))))
    }

    #[test]
    fn trivial_formulas() {
        let cnf = cnf_of(2, &[&[1], &[-2]]);
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(s.solve(&[], &SolveBudget::unlimited()), SolveOutcome::Sat);
        assert!(s.value(0) && !s.value(1));

        let cnf = cnf_of(1, &[&[1], &[-1]]);
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(s.solve(&[], &SolveBudget::unlimited()), SolveOutcome::Unsat);
        // Once globally UNSAT, it stays UNSAT.
        assert_eq!(s.solve(&[], &SolveBudget::unlimited()), SolveOutcome::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new(1);
        s.add_clause(&[]);
        assert_eq!(s.solve(&[], &SolveBudget::unlimited()), SolveOutcome::Unsat);
    }

    #[test]
    fn tautologies_are_dropped() {
        let mut s = Solver::new(1);
        s.add_clause(&[lit(1), lit(-1)]);
        assert_eq!(s.solve(&[], &SolveBudget::unlimited()), SolveOutcome::Sat);
    }

    /// `pigeons` into `holes`, with p_{i,j} = pigeon i in hole j: every
    /// pigeon sits somewhere and no hole holds two. A classic small UNSAT
    /// instance (when pigeons > holes) that exercises clause learning.
    fn pigeonhole(pigeons: usize, holes: usize) -> Cnf {
        let mut cnf = Cnf::new();
        let p: Vec<Vec<Lit>> =
            (0..pigeons).map(|_| (0..holes).map(|_| Lit::pos(cnf.new_var())).collect()).collect();
        for row in &p {
            cnf.add_clause(row);
        }
        for j in 0..holes {
            for (a, row_a) in p.iter().enumerate() {
                for row_b in &p[a + 1..] {
                    cnf.add_clause(&[row_a[j].negate(), row_b[j].negate()]);
                }
            }
        }
        cnf
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        let mut s = Solver::from_cnf(&pigeonhole(3, 2));
        assert_eq!(s.solve(&[], &SolveBudget::unlimited()), SolveOutcome::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_flip_the_verdict_incrementally() {
        // (a ∨ b) ∧ (¬a ∨ c): satisfiable; under {¬b, ¬c} forced a ∧ ¬c → UNSAT.
        let cnf = cnf_of(3, &[&[1, 2], &[-1, 3]]);
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(s.solve(&[], &SolveBudget::unlimited()), SolveOutcome::Sat);
        assert_eq!(s.solve(&[lit(-2), lit(-3)], &SolveBudget::unlimited()), SolveOutcome::Unsat);
        // The same solver still answers SAT without the assumptions.
        assert_eq!(s.solve(&[], &SolveBudget::unlimited()), SolveOutcome::Sat);
        assert!(model_satisfies(&s, &cnf, &[]));
        // Assumptions satisfied in the model when SAT under assumptions.
        let assumptions = [lit(2), lit(3)];
        assert_eq!(s.solve(&assumptions, &SolveBudget::unlimited()), SolveOutcome::Sat);
        assert!(model_satisfies(&s, &cnf, &assumptions));
    }

    #[test]
    fn contradictory_assumptions_are_unsat_without_breaking_the_solver() {
        let cnf = cnf_of(2, &[&[1, 2]]);
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(s.solve(&[lit(1), lit(-1)], &SolveBudget::unlimited()), SolveOutcome::Unsat);
        assert_eq!(s.solve(&[], &SolveBudget::unlimited()), SolveOutcome::Sat);
    }

    #[test]
    fn conflict_budget_yields_budget_exhausted() {
        // Pigeonhole 5-into-4 takes well over one conflict to refute.
        let mut s = Solver::from_cnf(&pigeonhole(5, 4));
        assert_eq!(s.solve(&[], &SolveBudget::conflicts(1)), SolveOutcome::BudgetExhausted);
        // With the budget lifted the verdict is reached.
        assert_eq!(s.solve(&[], &SolveBudget::unlimited()), SolveOutcome::Unsat);
    }

    #[test]
    fn restarts_under_assumptions_keep_the_verdict() {
        // Refuting pigeonhole 6-into-5 takes several Luby restarts; with an
        // assumption planted, each restart goes back to its level.
        let mut cnf = pigeonhole(6, 5);
        let free = Lit::pos(cnf.new_var());
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(s.solve(&[free], &SolveBudget::unlimited()), SolveOutcome::Unsat);
        assert!(s.stats().restarts > 0);
        // The formula itself is refuted, so no assumption is to blame.
        assert!(s.failed_assumptions().is_empty());
        assert_eq!(s.solve(&[free.negate()], &SolveBudget::unlimited()), SolveOutcome::Unsat);
    }

    #[test]
    fn a_conflict_at_a_kept_level_refutes_the_assumption_not_the_formula() {
        // Under a, deciding ¬x conflicts and learns ¬a ∨ x. A one-conflict
        // budget returns with x asserted at a's level but not propagated.
        // The next call keeps that level, and propagating x conflicts
        // there: a is refuted, the formula (satisfied by ¬a) is not.
        let cnf = cnf_of(4, &[&[-1, 2, 4], &[-1, 2, -4], &[-1, -2, 3], &[-1, -2, -3]]);
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(s.solve(&[lit(1)], &SolveBudget::conflicts(1)), SolveOutcome::BudgetExhausted);
        assert_eq!(s.solve(&[lit(1)], &SolveBudget::unlimited()), SolveOutcome::Unsat);
        assert_eq!(s.failed_assumptions(), &[lit(1)]);
        assert_eq!(s.solve(&[], &SolveBudget::unlimited()), SolveOutcome::Sat);
        assert!(model_satisfies(&s, &cnf, &[]));
    }

    #[test]
    fn failed_assumptions_name_the_culprits() {
        // a → b → c, and ¬c ∨ ¬d: under [e, a, d] the core is {a, d}.
        let cnf = cnf_of(5, &[&[-1, 2], &[-2, 3], &[-3, -4]]);
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(
            s.solve(&[lit(5), lit(1), lit(4)], &SolveBudget::unlimited()),
            SolveOutcome::Unsat
        );
        let mut core = s.failed_assumptions().to_vec();
        core.sort_unstable();
        assert_eq!(core, vec![lit(1), lit(4)]);
        // The next call keeps the shared prefix [e, a] and stays exact.
        assert_eq!(
            s.solve(&[lit(5), lit(1), lit(3)], &SolveBudget::unlimited()),
            SolveOutcome::Sat
        );
        assert!(model_satisfies(&s, &cnf, &[lit(5), lit(1), lit(3)]));
    }

    #[test]
    fn agrees_with_brute_force_on_fixed_instances() {
        let instances: Vec<(u32, Vec<Vec<i32>>)> = vec![
            (4, vec![vec![1, 2], vec![-1, 3], vec![-2, -3], vec![2, 3, 4], vec![-4, 1]]),
            (5, vec![vec![1, -2, 3], vec![2, -3, 4], vec![3, -4, 5], vec![-1, -5], vec![-3]]),
            (3, vec![vec![1], vec![-1, 2], vec![-2, 3], vec![-3, -1]]),
            (
                6,
                vec![
                    vec![1, 2, 3],
                    vec![4, 5, 6],
                    vec![-1, -4],
                    vec![-2, -5],
                    vec![-3, -6],
                    vec![1, 5],
                    vec![2, 6],
                    vec![3, 4],
                ],
            ),
        ];
        for (n, clauses) in instances {
            let refs: Vec<&[i32]> = clauses.iter().map(Vec::as_slice).collect();
            let cnf = cnf_of(n, &refs);
            let mut s = Solver::from_cnf(&cnf);
            let got = s.solve(&[], &SolveBudget::unlimited());
            let want = brute_force(&cnf, &[]);
            match (got, &want) {
                (SolveOutcome::Sat, Some(_)) => assert!(model_satisfies(&s, &cnf, &[])),
                (SolveOutcome::Unsat, None) => {}
                other => panic!("solver/brute-force disagree: {other:?}"),
            }
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn determinism_two_identical_runs() {
        let cnf =
            cnf_of(5, &[&[1, -2, 3], &[2, -3, 4], &[3, -4, 5], &[-1, -5], &[1, 4, -5], &[-2, 5]]);
        let run = || {
            let mut s = Solver::from_cnf(&cnf);
            let out = s.solve(&[], &SolveBudget::unlimited());
            let model: Vec<bool> = (0..5).map(|v| s.value(v)).collect();
            (out, model, s.stats().conflicts, s.stats().decisions)
        };
        assert_eq!(run(), run());
    }
}
