//! The one gate the throughput benches share.
//!
//! Each gated bench (`serve_bench`, `gateway_bench`, `registry_bench`,
//! `xsat_bench`, `analytics_bench`) declares a [`Bench`]: its section of
//! the baseline file, the integer knobs a baseline must have been recorded
//! at, the fields `--out` refuses to write unless they are finite and
//! positive, and its one gated throughput. [`Harness::finish`] then does
//! the same for every bench:
//!
//! 1. stamps the report with `bench`, `status` and `host` (usable CPUs,
//!    CPU model, `rustc -V`, and `git rev-parse HEAD` with `-dirty`
//!    appended when the checkout has uncommitted changes) and prints it;
//! 2. with `--out <path>`, refuses a declared field that is not finite and
//!    positive, then replaces the bench's section of `<path>` wholesale and
//!    keeps every other section (a missing file is created);
//! 3. with `--gate <baseline>`, refuses a baseline that lacks the section,
//!    was recorded at other knobs, was not bit-identical, or whose gated
//!    field is null, zero or not finite, and fails the run when the fresh
//!    gated throughput is below `(1 − tolerance) × baseline`.
//!
//! The tolerance is `DRCSHAP_BENCH_TOLERANCE` in `[0, 1)`, default 0.25,
//! read once by `drcshap_bench::harness`. Every gated metric is a
//! throughput, so higher is always better. The module never exits the
//! process: it returns a [`Verdict`], and the bench's `main` returns
//! [`Verdict::exit_code`].

use std::fmt;
use std::process::ExitCode;

use serde_json::Value;

/// What a gated bench declares to the harness.
#[derive(Debug)]
pub struct Bench {
    /// The bench's section of the baseline file; its binary is
    /// `<section>_bench`.
    pub section: &'static str,
    /// Integer knobs a baseline must share with the run to be compared.
    pub knobs: &'static [&'static str],
    /// Dotted paths of the fields `--out` refuses to write unless they are
    /// finite and positive.
    pub positive: &'static [&'static str],
    /// Dotted path of the one gated throughput.
    pub gated: &'static str,
}

/// How a bench run ends; each variant carries the line that explains it.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The gated throughput held, or the run was not gated.
    Pass(String),
    /// The gated throughput fell more than the tolerance below the baseline.
    Fail(String),
    /// The run was not compared or not recorded: the baseline is unusable
    /// or was recorded at other knobs, or a field `--out` needs is not
    /// finite and positive.
    Refused(String),
}

impl Verdict {
    /// The process exit status: 0 for a pass, 1 otherwise.
    pub fn exit_code(&self) -> ExitCode {
        match self {
            Verdict::Pass(_) => ExitCode::SUCCESS,
            Verdict::Fail(_) | Verdict::Refused(_) => ExitCode::FAILURE,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Pass(why) => write!(f, "PASS — {why}"),
            Verdict::Fail(why) => write!(f, "FAIL — {why}"),
            Verdict::Refused(why) => write!(f, "REFUSED — {why}"),
        }
    }
}

/// A bench's `--out` and `--gate` paths and the gate tolerance.
#[derive(Debug)]
pub struct Harness {
    bench: &'static Bench,
    out: Option<String>,
    gate: Option<String>,
    tolerance: f64,
}

impl Harness {
    /// The harness for `bench`, failing a run whose gated throughput is
    /// below `(1 − tolerance) × baseline`.
    pub(crate) fn new(
        bench: &'static Bench,
        out: Option<String>,
        gate: Option<String>,
        tolerance: f64,
    ) -> Self {
        Self { bench, out, gate, tolerance }
    }

    /// Stamps and prints `report`, writes it to `--out`, gates it against
    /// `--gate`, and prints and returns the verdict.
    pub fn finish(&self, report: Value) -> Verdict {
        let report = stamp(self.bench, report);
        println!("{}", pretty(&report));
        if let Some(path) = &self.out {
            if let Err(why) = write_section(self.bench, path, &report) {
                let verdict = Verdict::Refused(why);
                eprintln!("gate: {verdict}");
                return verdict;
            }
            eprintln!("wrote the {} section of {path}", self.bench.section);
        }
        let Some(path) = &self.gate else {
            return Verdict::Pass("not gated".to_string());
        };
        let verdict = match read_json(path) {
            Ok(baseline) => compare(self.bench, &report, &baseline, self.tolerance),
            Err(why) => Verdict::Refused(why),
        };
        eprintln!("gate: {path}: {verdict}");
        verdict
    }
}

/// Gates `fresh`, a bench's report, against the bench's section of
/// `baseline`, a whole baseline document.
fn compare(bench: &Bench, fresh: &Value, baseline: &Value, tolerance: f64) -> Verdict {
    let section = bench.section;
    let regenerate = format!("regenerate it with `{section}_bench --out`");
    let Some(base) = baseline.get(section) else {
        return Verdict::Refused(format!("the baseline has no `{section}` section; {regenerate}"));
    };
    for knob in bench.knobs {
        let was = base.get(knob).and_then(Value::as_u64);
        let now = fresh.get(knob).and_then(Value::as_u64);
        if was != now {
            return Verdict::Refused(format!(
                "the {section} baseline was recorded at {knob}={}, this run uses {knob}={}; \
                 rerun at the baseline's knobs or {regenerate}",
                show(was),
                show(now)
            ));
        }
    }
    if base.get("bit_identical").and_then(Value::as_bool) != Some(true) {
        return Verdict::Refused(format!("the {section} baseline was not bit-identical"));
    }
    let Some(was) = number(base, bench.gated).filter(|v| v.is_finite() && *v > 0.0) else {
        return Verdict::Refused(format!(
            "the baseline's {section}.{} is null, zero or not finite; {regenerate}",
            bench.gated
        ));
    };
    let now = number(fresh, bench.gated).unwrap_or(f64::NAN);
    let floor = was * (1.0 - tolerance);
    let how = format!(
        "fresh {section}.{} {now:.3e}/s vs baseline {was:.3e}/s ({:.1}% of baseline, floor {:.0}%)",
        bench.gated,
        now / was * 100.0,
        (1.0 - tolerance) * 100.0
    );
    // Written so that a NaN fresh throughput fails.
    if now >= floor {
        Verdict::Pass(how)
    } else {
        Verdict::Fail(how)
    }
}

/// Replaces `bench`'s section of the JSON object at `path` with `report`,
/// keeping every other section; creates the file when it is missing.
/// Refuses, writing nothing, when a declared field of `report` is not
/// finite and positive.
fn write_section(bench: &Bench, path: &str, report: &Value) -> Result<(), String> {
    for field in bench.positive {
        let value = number(report, field);
        if !value.is_some_and(|v| v.is_finite() && v > 0.0) {
            return Err(format!("not writing {path}: {field} is {}", show(value)));
        }
    }
    let mut doc = if std::path::Path::new(path).exists() {
        read_json(path)?
    } else {
        Value::Object(Default::default())
    };
    let Some(sections) = doc.as_object_mut() else {
        return Err(format!("{path} is not a JSON object"));
    };
    sections.insert(bench.section.to_string(), report.clone());
    std::fs::write(path, format!("{}\n", pretty(&doc)))
        .map_err(|e| format!("cannot write {path}: {e}"))
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

/// The number at a dotted `path` of `value`, if there is one.
fn number(value: &Value, path: &str) -> Option<f64> {
    path.split('.').try_fold(value, |v, key| v.get(key))?.as_f64()
}

fn show<T: fmt::Display>(value: Option<T>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}

fn pretty(value: &Value) -> String {
    serde_json::to_string_pretty(value).expect("a JSON value serializes")
}

fn stamp(bench: &Bench, mut report: Value) -> Value {
    report["bench"] = Value::from(format!("{}_bench", bench.section));
    report["status"] = Value::from("measured");
    report["host"] = host();
    report
}

/// The host a report's numbers come from: the CPUs usable by this process,
/// the CPU model, and the toolchain and commit of the checkout it ran in.
fn host() -> Value {
    let rustc = stdout_of("rustc", &["-V"]);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    serde_json::json!({
        "cpus": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "cpu": cpu,
        "rustc": rustc.unwrap_or_else(|| "unknown".to_string()),
        "git": commit(
            stdout_of("git", &["rev-parse", "HEAD"]),
            stdout_of("git", &["status", "--porcelain"]),
        ),
    })
}

/// The commit a report ran at: `head`, with `-dirty` appended when
/// `status` (`git status --porcelain`) lists uncommitted changes, so a
/// section measured before its change is committed says so; `unknown`
/// outside a checkout.
fn commit(head: Option<String>, status: Option<String>) -> String {
    match (head, status) {
        (None, _) => "unknown".to_string(),
        (Some(head), Some(status)) if !status.is_empty() => format!("{head}-dirty"),
        (Some(head), _) => head,
    }
}

/// A command's standard output without trailing whitespace, if it ran and
/// succeeded.
fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    let output = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    String::from_utf8(output.stdout).ok().map(|s| s.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    const DEMO: Bench = Bench {
        section: "demo",
        knobs: &["trees", "depth"],
        positive: &["latency_us", "phase.rate_per_s"],
        gated: "phase.rate_per_s",
    };

    fn report(trees: u64, rate: f64) -> Value {
        json!({
            "trees": trees,
            "depth": 5,
            "latency_us": 10.0,
            "phase": { "rate_per_s": rate },
            "bit_identical": true,
        })
    }

    fn baseline(section: Value) -> Value {
        json!({ "demo": section, "other": { "kept": 1 } })
    }

    /// Infinity as a JSON file can hold it: a number too large for f64.
    /// (`json!` turns a non-finite float into null.)
    fn infinity() -> Value {
        serde_json::from_str("1e999").unwrap()
    }

    fn verdict(fresh: &Value, base: &Value) -> Verdict {
        compare(&DEMO, fresh, base, 0.25)
    }

    /// A file in the temp dir no other test uses, removed if it exists.
    fn temp_file(name: &str) -> String {
        let path = std::env::temp_dir()
            .join(format!("drcshap-gate-{}-{name}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn passes_within_the_tolerance() {
        let base = baseline(report(50, 100.0));
        for rate in [75.0, 99.0, 100.0, 400.0] {
            let v = verdict(&report(50, rate), &base);
            assert!(matches!(v, Verdict::Pass(_)), "{rate}: {v}");
            assert_eq!(v.exit_code(), ExitCode::SUCCESS);
        }
    }

    #[test]
    fn fails_below_the_floor() {
        let base = baseline(report(50, 100.0));
        for rate in [74.99, 10.0, 0.0, f64::NAN] {
            let v = verdict(&report(50, rate), &base);
            assert!(matches!(v, Verdict::Fail(_)), "{rate}: {v}");
            assert_eq!(v.exit_code(), ExitCode::FAILURE);
        }
        let v = compare(&DEMO, &report(50, 99.0), &base, 0.0);
        assert!(matches!(v, Verdict::Fail(_)), "{v}");
    }

    #[test]
    fn refuses_each_knob_mismatch() {
        let base = baseline(report(50, 100.0));
        for knob in DEMO.knobs {
            // Faster than the baseline, so only the knob can stop it.
            let mut fresh = report(50, 1000.0);
            fresh[*knob] = json!(7);
            let v = verdict(&fresh, &base);
            assert!(matches!(&v, Verdict::Refused(why) if why.contains(knob)), "{knob}: {v}");
            assert_eq!(v.exit_code(), ExitCode::FAILURE);
            // A baseline that never recorded the knob is not comparable either.
            let mut unrecorded = report(50, 100.0);
            unrecorded.as_object_mut().unwrap().remove(*knob);
            let v = verdict(&report(50, 1000.0), &baseline(unrecorded));
            assert!(matches!(v, Verdict::Refused(_)), "{knob}: {v}");
        }
    }

    #[test]
    fn rejects_an_unusable_baseline() {
        let fresh = report(50, 1000.0);
        let mut diverged = report(50, 100.0);
        diverged["bit_identical"] = json!(false);
        let mut unproven = report(50, 100.0);
        unproven.as_object_mut().unwrap().remove("bit_identical");
        let mut unusable = vec![baseline(diverged), baseline(unproven), json!({ "other": {} })];
        for rate in [Value::Null, json!(0.0), json!(-1.0), infinity(), json!("fast")] {
            let mut base = report(50, 100.0);
            base["phase"]["rate_per_s"] = rate;
            unusable.push(baseline(base));
        }
        // The fields at the document's root, outside any section.
        unusable.push(report(50, 100.0));
        let mut unmeasured = report(50, 100.0);
        unmeasured.as_object_mut().unwrap().remove("phase");
        unusable.push(baseline(unmeasured));
        for base in &unusable {
            let v = verdict(&fresh, base);
            assert!(matches!(v, Verdict::Refused(_)), "{base:?}: {v}");
        }
    }

    #[test]
    fn out_creates_a_missing_file() {
        let path = temp_file("create");
        write_section(&DEMO, &path, &report(50, 100.0)).unwrap();
        assert_eq!(read_json(&path).unwrap(), json!({ "demo": report(50, 100.0) }));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_replaces_only_its_own_section() {
        let path = temp_file("replace");
        let old = json!({ "demo": { "stale": 1, "trees": 9 }, "other": { "kept": 1 } });
        std::fs::write(&path, pretty(&old)).unwrap();
        write_section(&DEMO, &path, &report(50, 120.0)).unwrap();
        let doc = read_json(&path).unwrap();
        assert_eq!(doc, json!({ "demo": report(50, 120.0), "other": { "kept": 1 } }));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_refuses_a_field_that_is_not_positive() {
        let path = temp_file("refuse");
        for field in ["latency_us", "phase.rate_per_s"] {
            for bad in [json!(0.0), json!(-3.0), infinity(), Value::Null] {
                let mut fresh = report(50, 100.0);
                match field.split_once('.') {
                    Some((outer, inner)) => fresh[outer][inner] = bad.clone(),
                    None => fresh[field] = bad.clone(),
                }
                let err = write_section(&DEMO, &path, &fresh).unwrap_err();
                assert!(err.contains(field), "{field} = {bad:?}: {err}");
                assert!(!std::path::Path::new(&path).exists(), "a refused report wrote {path}");
            }
        }
    }

    #[test]
    fn host_marks_an_uncommitted_checkout_dirty() {
        let head = || Some("1fb7523".to_string());
        assert_eq!(commit(head(), Some(String::new())), "1fb7523");
        assert_eq!(commit(head(), Some(" M BENCH_serve.json".to_string())), "1fb7523-dirty");
        assert_eq!(commit(head(), Some("?? crates/new.rs".to_string())), "1fb7523-dirty");
        assert_eq!(commit(None, Some(String::new())), "unknown");
    }

    #[test]
    fn finish_stamps_records_and_gates() {
        static STAMPED: Bench =
            Bench { section: "stamped", knobs: &["trees"], positive: &[], gated: "rate_per_s" };
        let (out, gate) = (temp_file("finish-out"), temp_file("finish-gate"));
        let base = json!({ "stamped": { "trees": 3, "rate_per_s": 10.0, "bit_identical": true } });
        std::fs::write(&gate, pretty(&base)).unwrap();
        let harness = Harness {
            bench: &STAMPED,
            out: Some(out.clone()),
            gate: Some(gate.clone()),
            tolerance: 0.25,
        };
        let fresh = json!({ "trees": 3, "rate_per_s": 9.0, "bit_identical": true });
        assert!(matches!(harness.finish(fresh), Verdict::Pass(_)));
        let section = &read_json(&out).unwrap()["stamped"];
        assert_eq!(section["bench"], json!("stamped_bench"));
        assert_eq!(section["status"], json!("measured"));
        for key in ["cpus", "cpu", "rustc", "git"] {
            assert!(section["host"].get(key).is_some(), "host lacks {key}: {section:?}");
        }
        let slower = json!({ "trees": 3, "rate_per_s": 1.0, "bit_identical": true });
        assert!(matches!(harness.finish(slower), Verdict::Fail(_)));
        std::fs::remove_file(&out).unwrap();
        std::fs::remove_file(&gate).unwrap();
    }
}
