//! `drcshap gateway` reads JSONL requests from stdin or, with `--listen`,
//! from each TCP connection. A `deadline_ms` too large for a duration is a
//! malformed line: on stdin it fails the run naming the line, and on a
//! socket it closes only its own connection while the listener serves on.
//! A duration flag too large for a duration is a usage error.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use drcshap::core::{save_model, SavedModel};
use drcshap::features::FeatureSchema;
use drcshap::forest::RandomForestTrainer;
use drcshap::ml::{Dataset, Trainer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Saves a small forest over the paper's 387 features into a fresh temp
/// directory; returns the directory, the model path and one feature row.
fn saved_model(tag: &str) -> (PathBuf, PathBuf, Vec<f32>) {
    let schema = FeatureSchema::paper_387();
    let m = schema.len();
    let rows = 120;
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let x: Vec<f32> = (0..rows * m).map(|_| rng.gen_range(0.0..1.0)).collect();
    let y: Vec<bool> = (0..rows).map(|i| x[i * m] > 0.5).collect();
    let data = Dataset::from_parts(x, y, vec![0; rows], m);
    let forest = RandomForestTrainer { n_trees: 4, ..Default::default() }.fit(&data, 1);
    let dir = std::env::temp_dir().join(format!("drcshap-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let model = dir.join("rf.model");
    save_model(&model, &SavedModel::Rf(forest), &schema).expect("save model");
    (dir, model, data.row(0).to_vec())
}

/// A request line whose deadline (1e22 s) no `Duration` can hold.
fn huge_deadline_line(row: &[f32]) -> String {
    let x = serde_json::to_string(row).expect("row serializes");
    format!("{{\"x\":{x},\"deadline_ms\":1e25}}\n")
}

/// Sends `line` on a fresh connection, closes the write side, and returns
/// everything the gateway answered before closing.
fn exchange(addr: &str, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    stream.write_all(line.as_bytes()).expect("send request");
    stream.shutdown(Shutdown::Write).expect("close write side");
    let mut answer = String::new();
    stream.read_to_string(&mut answer).expect("read answer");
    answer
}

#[test]
fn listener_survives_a_deadline_no_duration_holds() {
    let (dir, model, row) = saved_model("gateway-listen");
    let mut child = Command::new(env!("CARGO_BIN_EXE_drcshap"))
        .arg("gateway")
        .arg(&model)
        .args(["--listen", "127.0.0.1:0", "--max-conns", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start drcshap gateway");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr pipe"));
    let mut log = String::new();
    let addr = loop {
        let mut line = String::new();
        if stderr.read_line(&mut line).expect("read stderr") == 0 {
            panic!("gateway exited before listening: {log}");
        }
        log.push_str(&line);
        if let Some(addr) = line.trim().strip_prefix("gateway listening on ") {
            break addr.to_string();
        }
    };

    let refused = exchange(&addr, &huge_deadline_line(&row));
    let x = serde_json::to_string(&row).expect("row serializes");
    let answered = exchange(&addr, &format!("{x}\n"));

    let status = child.wait().expect("wait for gateway");
    stderr.read_to_string(&mut log).expect("read stderr");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(refused, "", "a malformed line gets no answer");
    assert!(answered.starts_with("{\"line\":1,\"score\":"), "{answered:?}");
    assert!(status.success(), "gateway exited with {status}: {log}");
    assert!(log.contains("line 1: bad deadline_ms"), "{log}");
}

#[test]
fn stdin_names_the_line_of_a_deadline_no_duration_holds() {
    let (dir, model, row) = saved_model("gateway-stdin");
    let mut child = Command::new(env!("CARGO_BIN_EXE_drcshap"))
        .arg("gateway")
        .arg(&model)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start drcshap gateway");
    let mut stdin = child.stdin.take().expect("stdin pipe");
    stdin.write_all(huge_deadline_line(&row).as_bytes()).expect("send request");
    drop(stdin);
    let out = child.wait_with_output().expect("wait for gateway");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("line 1"), "{stderr}");
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn duration_flags_no_duration_holds_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("drcshap-cli-flags-{}", std::process::id()));
    let run_dir = dir.join("run");
    let run_dir = run_dir.to_str().expect("UTF-8 temp path");
    // 1e22 s, or 1e25 ms, is past `Duration::MAX` (about 1.8e19 s). Each
    // flag is read before any model, design or check is touched.
    let testkit = ["testkit", "run", "--check", "metrics-vs-reference", "--seeds", "1"];
    let cases: Vec<Vec<&str>> = vec![
        vec!["run", run_dir, "--deadline", "1e22"],
        vec!["serve", "missing.model", "--wait-ms", "1e25"],
        vec!["gateway", "missing.model", "--wait-ms", "1e25"],
        vec!["gateway", "missing.model", "--deadline-ms", "1e25"],
        vec!["gateway", "missing.model", "--hedge-ms", "1e25"],
        [&testkit[..], &["--soak-secs", "1e22"]].concat(),
        [&testkit[..], &["--gateway-soak-secs", "1e22"]].concat(),
    ];
    for args in &cases {
        let out =
            Command::new(env!("CARGO_BIN_EXE_drcshap")).args(args).output().expect("run drcshap");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    }
    assert!(!dir.exists(), "a usage error must not start a run");
}
