//! Command-line tests of the `serve` binary that never bind a socket: flags
//! the binary does not know are rejected with the usage text before boot.

use std::process::Command;

fn serve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_serve"))
}

#[test]
fn entry_count_cache_flags_are_rejected_with_usage() {
    for flag in ["--cache-capacity", "--factor-cache-capacity"] {
        let output = serve().args([flag, "4"]).output().expect("serve runs");
        assert_eq!(output.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: serve"), "{flag}: {stderr}");
        assert!(stderr.contains("--cache-bytes N"), "{flag}: {stderr}");
        assert!(output.stdout.is_empty(), "{flag} must not boot a server");
    }
}
