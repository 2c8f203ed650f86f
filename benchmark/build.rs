//! Records the compiler that built the benchmark, for the header lines.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        );
    println!("cargo:rustc-env=BENCHMARK_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
