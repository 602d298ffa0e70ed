//! Process-level behaviour of the `sa-bench` binaries.

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// A scratch output directory for one test.
fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// A binary whose standard output is already closed (its reader, e.g.
/// `head -1`, went away) exits 0 instead of panicking in `println!`.
#[test]
fn closed_stdout_is_a_clean_exit() {
    let bin = env!("CARGO_BIN_EXE_reproduce");
    let out = out_dir("closed_stdout");
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let run = Command::new(bin)
        .args([
            "--scale", "100", "--only", "557.xz_2", "--jobs", "2", "--out",
        ])
        .arg(&out)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{bin}: {:?}\n{stderr}", run.status);
    assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    // The files are written before anything is printed.
    assert!(out.join("ablation.txt").is_file(), "{}", out.display());
}

/// Bad input still fails with the usage status, hook or no hook, names
/// the flag or name at fault and writes nothing: an unknown option, an
/// `--only` or `--litmus` that names nothing, a common flag the binary
/// does not read, and a malformed number.
#[test]
fn bad_option_still_exits_2() {
    let cases: &[(&str, &[&str], &str)] = &[
        (env!("CARGO_BIN_EXE_reproduce"), &["--bogus"], "--bogus"),
        (
            env!("CARGO_BIN_EXE_reproduce"),
            &["--only", "nosuch"],
            "nosuch",
        ),
        (env!("CARGO_BIN_EXE_reproduce"), &["--json"], "--json"),
        (
            env!("CARGO_BIN_EXE_trace"),
            &[
                "--litmus",
                "n6",
                "--engine",
                "parallel:4",
                "--cores",
                "64",
                "--topology",
                "mesh:4",
                "--json",
            ],
            "--engine",
        ),
        (
            env!("CARGO_BIN_EXE_trace"),
            &["--litmus", "n6", "--litmus", "nope"],
            "nope",
        ),
        (
            env!("CARGO_BIN_EXE_forensics"),
            &["--litmus", "n6", "--cores", "64"],
            "--cores",
        ),
        (
            env!("CARGO_BIN_EXE_forensics"),
            &["--litmus", "n6", "--serve-metrics", "x"],
            "--serve-metrics",
        ),
        (
            env!("CARGO_BIN_EXE_fuzz"),
            &["--programs", "0", "--topology", "mesh:4"],
            "--topology",
        ),
        (
            env!("CARGO_BIN_EXE_fuzz"),
            &["--programs", "x"],
            "--programs",
        ),
        (env!("CARGO_BIN_EXE_serve"), &["--port", "abc"], "--port"),
        (
            env!("CARGO_BIN_EXE_scalestudy"),
            &["--threads", "x"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_scalestudy"),
            &["--only", "x86"],
            "--only",
        ),
        (env!("CARGO_BIN_EXE_perf"), &["--profile"], "--profile"),
        (
            env!("CARGO_BIN_EXE_perf"),
            &["--engine", "event"],
            "--engine",
        ),
    ];
    let out = out_dir("bad_option");
    for &(bin, args, flag) in cases {
        let run = Command::new(bin)
            .args(args)
            .arg("--out")
            .arg(&out)
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(flag), "{bin} {args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{bin} {args:?} printed output");
        assert!(
            !out.exists(),
            "{bin} {args:?}: a usage error writes nothing"
        );
    }
}
