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

/// Bad input still fails with the usage status, hook or no hook: an
/// unknown option, and an `--only` that names no workload.
#[test]
fn bad_option_still_exits_2() {
    let out = out_dir("bad_option");
    for args in [&["--bogus"][..], &["--only", "nosuch"]] {
        let run = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .arg("--out")
            .arg(&out)
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains(args[args.len() - 1]), "{args:?}: {stderr}");
    }
    assert!(!out.exists(), "a usage error writes nothing");
}
