//! Runs the DESIGN.md ablation studies and prints their tables.
//!
//! ```text
//! ablations [--scale paper|small]
//! ```

use dco_bench::ablation;
use dco_bench::figs::FigScale;
use dco_bench::usage_block;

fn parse(args: &[String]) -> Result<FigScale, String> {
    let mut scale = FigScale::small();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("paper") => FigScale::paper(),
                    Some("small") => FigScale::small(),
                    Some(other) => return Err(format!("unknown scale {other} (use paper|small)")),
                    None => return Err("--scale needs a value (paper|small)".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(scale)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = usage_block(include_str!("ablations.rs"));
    if args.iter().any(|a| a == "--help") {
        print!("{usage}");
        return;
    }
    let scale = parse(&args).unwrap_or_else(|e| {
        eprintln!("ablations: {e}");
        eprint!("usage: {usage}");
        std::process::exit(2);
    });

    type Study = fn(&FigScale) -> Vec<ablation::AblationRow>;
    let studies: [(&str, Study); 4] = [
        (
            "Ablation A: provider selection (sufficient-bandwidth vs random)",
            ablation::ablate_selection,
        ),
        (
            "Ablation B: prefetch window (adaptive Eq. 2 vs fixed), under churn",
            ablation::ablate_window,
        ),
        (
            "Ablation C: tier mode (flat §IV ring vs hierarchical §III)",
            ablation::ablate_tier,
        ),
        (
            "Ablation D: bandwidth model (sender-side vs full store-and-forward)",
            ablation::ablate_bandwidth_model,
        ),
    ];

    for (title, f) in studies {
        let t0 = std::time::Instant::now();
        let rows = f(&scale);
        println!("{}", ablation::to_table(title, &rows));
        println!("# generated in {:.1}s\n", t0.elapsed().as_secs_f64());
    }
}
