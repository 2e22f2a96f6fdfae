//! DANCE experiment runner: regenerates every table and figure of §6.
//!
//! ```sh
//! cargo run -p dance-bench --release --bin experiments -- --all
//! cargo run -p dance-bench --release --bin experiments -- fig6 table5
//! cargo run -p dance-bench --release --bin experiments -- --scale 0.5 fig4
//! ```

use dance_bench::{
    exp_ablation, exp_correlation, exp_scalability, exp_tables, DEFAULT_SCALE, DEFAULT_SEED,
};

const ALL: &[&str] = &[
    "table5",
    "fig4",
    "fig5",
    "fig5c",
    "fig6",
    "fig7",
    "fig8",
    "table6",
    "ablation_steiner",
    "ablation_sampling",
    "ablation_clean",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = DEFAULT_SCALE;
    let mut seed = DEFAULT_SEED;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => wanted.extend(ALL.iter().map(|s| s.to_string())),
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale takes a float");
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes a u64");
            }
            other if ALL.contains(&other) => wanted.push(other.to_string()),
            other => {
                eprintln!("unknown experiment `{other}`; available: {ALL:?}");
                std::process::exit(2);
            }
        }
    }
    if wanted.is_empty() {
        eprintln!("usage: experiments [--scale S] [--seed N] (<exp>... | --all)");
        eprintln!("experiments: {ALL:?}");
        std::process::exit(2);
    }

    for exp in wanted {
        let t0 = std::time::Instant::now();
        let report = match exp.as_str() {
            "table5" => exp_tables::table5(scale, seed),
            "table6" => exp_tables::table6(scale, seed),
            "fig4" => exp_scalability::fig4(scale, seed),
            "fig5" => exp_scalability::fig5(scale, seed),
            "fig5c" => exp_scalability::fig5c(scale, seed),
            "fig6" => exp_correlation::fig6(scale, seed),
            "fig7" => exp_correlation::fig7(scale, seed),
            "fig8" => exp_correlation::fig8(scale, seed),
            "ablation_steiner" => exp_ablation::ablation_steiner(scale, seed),
            "ablation_sampling" => exp_ablation::ablation_sampling(scale, seed),
            "ablation_clean" => exp_ablation::ablation_clean(scale, seed),
            _ => unreachable!("validated above"),
        };
        println!("==================== {exp} ====================");
        println!("{report}");
        println!("[{exp} completed in {:.2?}]\n", t0.elapsed());
    }
}
