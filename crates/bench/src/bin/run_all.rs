//! Runs every experiment binary in sequence (the full §6 reproduction).
//! Equivalent to invoking each `exp_*` binary yourself; results land under
//! `results/`.

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "exp_table4",
    "exp_fig2",
    "exp_table5",
    "exp_fig3",
    "exp_fig4",
    "exp_table6",
    "exp_fig5",
    "exp_table7",
    "exp_ssl_variants",
    "exp_fig6",
    "exp_table8",
    "exp_social",
];

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        println!("\n==== running {name} ====");
        let status = Command::new(dir.join(name))
            .status()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        if !status.success() {
            eprintln!("{name} exited with {status}");
            failures.push(*name);
        }
    }
    if failures.is_empty() {
        println!(
            "\nall {} experiments completed; see results/",
            EXPERIMENTS.len()
        );
    } else {
        eprintln!("\nfailed: {failures:?}");
        std::process::exit(1);
    }
}
