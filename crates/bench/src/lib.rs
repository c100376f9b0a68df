//! # dco-bench — the experiment harness
//!
//! Regenerates every figure of the paper's evaluation (§IV, Figs. 5–12)
//! plus the ablations DESIGN.md calls out:
//!
//! * [`runner`] — builds a scenario, runs one method, extracts all four
//!   metrics from the same simulation.
//! * [`figs`] — one generator per paper figure, parallel across sweep
//!   points and seeds.
//! * [`ablation`] — design-choice studies (provider selection, adaptive
//!   window, tier mode, bandwidth model).
//! * [`sweep`] — the parallel, deterministic batch-experiment harness:
//!   grid expansion, a scoped-thread pool, per-cell determinism proofs,
//!   multi-seed aggregation and JSON/table reports.
//!
//! The `figures` binary prints any subset as text tables and CSV; the
//! `dco-sweep` binary runs batch grids:
//!
//! ```text
//! cargo run --release -p dco-bench --bin figures -- all --scale paper
//! cargo run --release -p dco-bench --bin dco-sweep -- --preset small --jobs 8
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod figs;
pub mod runner;
pub mod shard_run;
pub mod sweep;
pub mod timing;

pub use figs::FigScale;
pub use runner::{run, run_with_stats, CellProof, Method, RunParams, RunResult, RunStats};
pub use sweep::{run_sweep, SweepConfig, SweepReport};

/// The usage block of a binary: the first ```` ```text ```` fence of the
/// `//!` module docs in `src`, the binary's own source text (passed in with
/// `include_str!`), so `--help` prints exactly what the docs show.
pub fn usage_block(src: &str) -> String {
    let mut out = String::new();
    let mut inside = false;
    for line in src.lines() {
        let Some(doc) = line.strip_prefix("//!") else {
            continue;
        };
        let doc = doc.strip_prefix(' ').unwrap_or(doc);
        if doc.starts_with("```") {
            if inside {
                break;
            }
            inside = doc == "```text";
        } else if inside {
            out.push_str(doc);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn usage_block_is_the_first_text_fence_of_the_module_docs() {
        let src = "//! Tool.\n//!\n//! ```text\n//! tool [--x N]\n//!      [--y]\n//! ```\n//!\n//! ```text\n//! later\n//! ```\n// ```text\nfn main() {}\n";
        assert_eq!(super::usage_block(src), "tool [--x N]\n     [--y]\n");
    }
}
