//! The CLI treats a closed stdout (`experiments … | head`) as a quiet
//! exit: no panic, no backtrace.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_quiet_exit_not_a_panic() {
    let out = std::env::temp_dir().join(format!("spindown_closed_stdout_{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--out"])
        .arg(&out)
        .args(["--cache-tiers", "lru:0", "--requests", "1000", "replay"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("experiments binary starts");
    // Close the read end before the first figure is written.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("experiments exits");
    std::fs::remove_dir_all(&out).ok();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_ne!(output.status.code(), Some(101), "panicked:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
