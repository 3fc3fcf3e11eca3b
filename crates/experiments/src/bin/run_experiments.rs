//! Regenerate the paper's evaluation artifacts.
//!
//! ```text
//! run_experiments [FIGURES...] [--smoke | --default | --paper-scale]
//!                 [--seed N] [--out DIR]
//!
//! FIGURES   fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 baselines prelim
//!           faults overload workers cells recovery chaos
//!           ablations | all   (default: all)
//! --smoke        tiny configuration (seconds; used by CI)
//! --default      reduced but trend-preserving configuration (default)
//! --paper-scale  the paper's full protocol (long!)
//! --seed N       master seed (default 20140901, the venue month)
//! --out DIR      artifact directory (default results/)
//! ```
//!
//! Each figure prints a console table and writes `<out>/<fig>.csv` and
//! `<out>/<fig>.md`.

use experiments::{
    all_figures, figure_by_name, render_csv, render_svg, render_table, Metric, Preset, Scale,
};
use std::path::PathBuf;

fn main() {
    let mut figures: Vec<String> = Vec::new();
    let mut preset = Preset::Default;
    let mut seed: u64 = 20_140_901;
    let mut out = PathBuf::from("results");

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => preset = Preset::Smoke,
            "--default" => preset = Preset::Default,
            "--paper-scale" => preset = Preset::PaperScale,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--help" | "-h" => {
                println!("{}", HELP);
                return;
            }
            "--list" => {
                for f in all_figures() {
                    println!("{:<10} {}", f.name, f.title);
                    println!("{:<10}   paper: {}", "", f.expectation);
                }
                return;
            }
            other if other.starts_with('-') => die(&format!("unknown flag {other}")),
            fig => figures.push(fig.to_string()),
        }
    }
    if figures.is_empty() || figures.iter().any(|f| f == "all") {
        figures = all_figures().iter().map(|f| f.name.to_string()).collect();
    }

    let scale = Scale::for_preset(preset);
    std::fs::create_dir_all(&out).expect("create artifact directory");

    println!(
        "# MRCP-RM experiment regeneration — preset {:?}, seed {seed}\n",
        preset
    );
    for name in &figures {
        let Some(fig) = figure_by_name(name) else {
            die(&format!("unknown figure '{name}' (try --help)"));
        };
        eprintln!("running {name} …");
        let t0 = std::time::Instant::now();
        let result = (fig.run)(&scale, seed);
        let table = render_table(&result);
        println!("{table}");
        println!("({name} took {:.1}s)\n", t0.elapsed().as_secs_f64());
        std::fs::write(out.join(format!("{name}.csv")), render_csv(&result))
            .expect("write csv artifact");
        std::fs::write(out.join(format!("{name}.md")), table).expect("write md artifact");
        for metric in [Metric::PLate, Metric::Turnaround, Metric::Overhead] {
            std::fs::write(
                out.join(format!("{name}_{}.svg", metric.suffix())),
                render_svg(&result, metric),
            )
            .expect("write svg artifact");
        }
    }
    println!("artifacts written to {}", out.display());
}

const HELP: &str =
    "run_experiments [FIGURES...] [--smoke|--default|--paper-scale] [--seed N] [--out DIR] [--list]
FIGURES: fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 baselines prelim faults overload workers cells recovery chaos ablations | all";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{HELP}");
    std::process::exit(2);
}
