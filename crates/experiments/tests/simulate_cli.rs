//! End-to-end test of the `simulate` binary's `SIMKIT_SOLVER` handling:
//! a backend name the solver layer does not know stops the run before
//! any simulation, instead of silently falling back to `Auto`.

use std::process::Command;

#[test]
fn unknown_solver_backend_is_rejected() {
    // Set on the child only: the test process's own environment (and so
    // every other test's config constructors) stays untouched.
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--duration-ms", "1", "--quiet"])
        .env("SIMKIT_SOLVER", "gs")
        .env_remove("SIMKIT_TELEMETRY")
        .output()
        .expect("simulate runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "SIMKIT_SOLVER=gs was accepted");
    assert!(
        stderr.contains("SIMKIT_SOLVER=\"gs\"") && stderr.contains("auto|direct|cg|mgcg"),
        "stderr does not name the value and the accepted backends:\n{stderr}"
    );
}
