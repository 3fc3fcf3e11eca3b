//! Regenerate the paper's evaluation artifacts and check the paper's claims
//! against them.
//!
//! ```text
//! run_experiments [FIGURES...] [--smoke | --default | --paper-scale]
//!                 [--seed N] [--out DIR] [--list]
//!
//! FIGURES        figure names (--list prints them) or all (default: all)
//! --smoke        tiny configuration (seconds; used by CI)
//! --default      reduced but trend-preserving configuration (default)
//! --paper-scale  the paper's full protocol (long!)
//! --seed N       master seed (default 20140901, the venue month)
//! --out DIR      artifact directory (default results/)
//! --list         print every figure's name and title
//! ```
//!
//! Each figure prints a console table and one `PASS`/`FAIL` line per
//! checked claim, and writes `<out>/<fig>.csv`, `<out>/<fig>.md` (table and
//! verdicts) and `<out>/<fig>_{P,T,O}.svg`. The exit status is 1 when a
//! claim fails and 2 on a usage error.

use experiments::{
    all_figures, figure_by_name, render_csv, render_svg, render_table, render_verdicts, Metric,
    Preset, Scale,
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
                println!("{}", help());
                return;
            }
            "--list" => {
                for f in all_figures() {
                    println!("{:<10} {}", f.name, f.title);
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
    let mut failed = 0;
    for name in &figures {
        let Some(fig) = figure_by_name(name) else {
            die(&format!("unknown figure '{name}' (try --help)"));
        };
        eprintln!("running {name} …");
        let t0 = std::time::Instant::now();
        let result = (fig.run)(&scale, seed);
        let verdicts = (fig.check)(&result);
        failed += verdicts.iter().filter(|v| !v.pass).count();
        let table = render_table(fig.name, fig.title, &result);
        let report = format!("{table}\n{}", render_verdicts(fig.name, &verdicts));
        println!("{report}");
        println!("({name} took {:.1}s)\n", t0.elapsed().as_secs_f64());
        std::fs::write(
            out.join(format!("{name}.csv")),
            render_csv(fig.name, &result),
        )
        .expect("write csv artifact");
        std::fs::write(out.join(format!("{name}.md")), report).expect("write md artifact");
        for metric in [Metric::PLate, Metric::Turnaround, Metric::Overhead] {
            std::fs::write(
                out.join(format!("{name}_{}.svg", metric.suffix())),
                render_svg(fig.name, fig.title, &result, metric),
            )
            .expect("write svg artifact");
        }
    }
    println!("artifacts written to {}", out.display());
    if failed > 0 {
        eprintln!("{failed} claim(s) failed");
        std::process::exit(1);
    }
}

fn help() -> String {
    let names: Vec<&str> = all_figures().iter().map(|f| f.name).collect();
    format!(
        "run_experiments [FIGURES...] [--smoke|--default|--paper-scale] [--seed N] [--out DIR] [--list]\nFIGURES: {} | all",
        names.join(" ")
    )
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{}", help());
    std::process::exit(2);
}
