//! Process-level behaviour of the `sa-bench` binaries.

use std::process::{Command, Stdio};

/// A binary whose standard output is already closed (its reader, e.g.
/// `head -1`, went away) exits 0 instead of panicking in `println!`.
#[test]
fn closed_stdout_is_a_clean_exit() {
    for bin in [env!("CARGO_BIN_EXE_table2"), env!("CARGO_BIN_EXE_table1")] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(bin)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{bin}: {:?}\n{stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    }
}

/// Bad input still fails with the usage status, hook or no hook.
#[test]
fn bad_option_still_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .arg("--bogus")
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}
