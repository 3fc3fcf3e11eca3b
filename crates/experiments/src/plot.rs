//! SVG rendering of regenerated figures — no plotting dependency, just
//! hand-written SVG, so `run_experiments` can emit an actual *figure* for
//! every figure of the paper (grouped series with 95% CI error bars, in
//! the paper's two-series style for Figs. 2–3).

use crate::report::FigureResult;
use crate::runner::MetricAgg;
use desim::stats::CiMean;
use std::fmt::Write as _;

/// Which metric a chart plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Proportion of late jobs `P` (fraction of 1).
    PLate,
    /// Mean turnaround `T`, seconds.
    Turnaround,
    /// Scheduling overhead `O`, seconds per job.
    Overhead,
}

impl Metric {
    /// Axis label.
    pub fn label(self) -> &'static str {
        match self {
            Metric::PLate => "P (fraction of late jobs)",
            Metric::Turnaround => "T (s)",
            Metric::Overhead => "O (s/job)",
        }
    }

    /// File suffix (`fig2_P.svg`).
    pub fn suffix(self) -> &'static str {
        match self {
            Metric::PLate => "P",
            Metric::Turnaround => "T",
            Metric::Overhead => "O",
        }
    }

    fn pick(self, agg: &MetricAgg) -> CiMean {
        match self {
            Metric::PLate => agg.p_late(),
            Metric::Turnaround => agg.turnaround(),
            Metric::Overhead => agg.overhead(),
        }
    }
}

const W: f64 = 640.0;
const H: f64 = 400.0;
const ML: f64 = 70.0; // margins
const MR: f64 = 20.0;
const MT: f64 = 40.0;
const MB: f64 = 60.0;
const PALETTE: [&str; 6] = [
    "#2d6cdf", "#d95f02", "#1b9e77", "#7570b3", "#e7298a", "#66a61e",
];

/// Render one metric of figure `name` as an SVG grouped line chart with CI
/// error bars. Points sharing a label form the x-axis; each series gets a
/// color and a legend entry.
pub fn render_svg(name: &str, title: &str, fig: &FigureResult, metric: Metric) -> String {
    // Collect x categories (in first-appearance order) and series.
    let mut xcats: Vec<&str> = Vec::new();
    let mut series: Vec<&str> = Vec::new();
    for p in &fig.points {
        if !xcats.contains(&p.label.as_str()) {
            xcats.push(&p.label);
        }
        if !series.contains(&p.series.as_str()) {
            series.push(&p.series);
        }
    }
    let value = |s: &str, x: &str| -> Option<CiMean> {
        fig.points
            .iter()
            .find(|p| p.series == s && p.label == x)
            .map(|p| metric.pick(&p.agg))
    };

    // Y range over means ± half-widths (finite ones).
    let mut ymax = f64::EPSILON;
    for p in &fig.points {
        let v = metric.pick(&p.agg);
        let top = v.mean
            + if v.half_width.is_finite() {
                v.half_width
            } else {
                0.0
            };
        ymax = ymax.max(top);
    }
    ymax *= 1.08;

    let plot_w = W - ML - MR;
    let plot_h = H - MT - MB;
    let xpos = |i: usize| -> f64 {
        if xcats.len() == 1 {
            ML + plot_w / 2.0
        } else {
            ML + plot_w * i as f64 / (xcats.len() - 1) as f64
        }
    };
    let ypos = |v: f64| -> f64 { MT + plot_h * (1.0 - (v / ymax).clamp(0.0, 1.0)) };

    let mut s = String::new();
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">"#
    );
    let _ = writeln!(s, r#"<rect width="{W}" height="{H}" fill="white"/>"#);
    // Title.
    let _ = writeln!(
        s,
        r#"<text x="{}" y="20" text-anchor="middle" font-size="14">{} — {}</text>"#,
        W / 2.0,
        xml_escape(name),
        xml_escape(title)
    );
    // Axes.
    let _ = writeln!(
        s,
        r#"<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{}" stroke="black"/>"#,
        H - MB
    );
    let _ = writeln!(
        s,
        r#"<line x1="{ML}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
        H - MB,
        W - MR,
        H - MB
    );
    // Y ticks (5).
    for k in 0..=5 {
        let v = ymax * k as f64 / 5.0;
        let y = ypos(v);
        let _ = writeln!(
            s,
            r#"<line x1="{}" y1="{y}" x2="{ML}" y2="{y}" stroke="black"/><text x="{}" y="{}" text-anchor="end">{}</text>"#,
            ML - 4.0,
            ML - 8.0,
            y + 4.0,
            format_sig(v)
        );
    }
    // Y label.
    let _ = writeln!(
        s,
        r#"<text x="16" y="{}" transform="rotate(-90 16 {})" text-anchor="middle">{}</text>"#,
        H / 2.0,
        H / 2.0,
        xml_escape(metric.label())
    );
    // X ticks/labels.
    for (i, x) in xcats.iter().enumerate() {
        let px = xpos(i);
        let _ = writeln!(
            s,
            r#"<line x1="{px}" y1="{}" x2="{px}" y2="{}" stroke="black"/><text x="{px}" y="{}" text-anchor="middle">{}</text>"#,
            H - MB,
            H - MB + 4.0,
            H - MB + 18.0,
            xml_escape(x)
        );
    }
    // Series.
    for (si, name) in series.iter().enumerate() {
        let color = PALETTE[si % PALETTE.len()];
        let mut path = String::new();
        for (i, x) in xcats.iter().enumerate() {
            if let Some(v) = value(name, x) {
                let (px, py) = (xpos(i), ypos(v.mean));
                let _ = write!(path, "{px},{py} ");
                // CI error bar.
                if v.half_width.is_finite() && v.half_width > 0.0 {
                    let y1 = ypos(v.mean + v.half_width);
                    let y2 = ypos((v.mean - v.half_width).max(0.0));
                    let _ = writeln!(
                        s,
                        r#"<line x1="{px}" y1="{y1}" x2="{px}" y2="{y2}" stroke="{color}" stroke-width="1"/>"#
                    );
                }
                let _ = writeln!(s, r#"<circle cx="{px}" cy="{py}" r="3.5" fill="{color}"/>"#);
            }
        }
        if !path.is_empty() {
            let _ = writeln!(
                s,
                r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="2"/>"#,
                path.trim()
            );
        }
        // Legend.
        let ly = MT + 16.0 * si as f64;
        let _ = writeln!(
            s,
            r#"<rect x="{}" y="{}" width="12" height="12" fill="{color}"/><text x="{}" y="{}">{}</text>"#,
            W - MR - 180.0,
            ly,
            W - MR - 162.0,
            ly + 10.0,
            xml_escape(name)
        );
    }
    s.push_str("</svg>\n");
    s
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn format_sig(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PointResult;
    use crate::runner::{MetricAgg, Sample};

    fn fig() -> FigureResult {
        let mut points = Vec::new();
        for (label, p_a, p_b) in [("λ=1e-4", 0.01, 0.05), ("λ=5e-4", 0.06, 0.08)] {
            for (series, p) in [("MRCP-RM", p_a), ("MinEDF-WC", p_b)] {
                let mut agg = MetricAgg::new();
                agg.push(Sample {
                    p_late: p,
                    n_late: p * 100.0,
                    turnaround_s: 600.0,
                    overhead_s: 0.001,
                    rejected_frac: 0.0,
                });
                agg.push(Sample {
                    p_late: p * 1.2,
                    n_late: p * 120.0,
                    turnaround_s: 650.0,
                    overhead_s: 0.002,
                    rejected_frac: 0.0,
                });
                points.push(PointResult {
                    label: label.into(),
                    series: series.into(),
                    agg,
                });
            }
        }
        FigureResult { points }
    }

    #[test]
    fn svg_contains_axes_series_and_legend() {
        let svg = render_svg("fig2", "P vs λ", &fig(), Metric::PLate);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("polyline"), "series lines drawn");
        assert!(svg.matches("circle").count() >= 4, "one marker per point");
        assert!(svg.contains("MRCP-RM") && svg.contains("MinEDF-WC"));
        assert!(svg.contains("λ=1e-4") && svg.contains("λ=5e-4"));
        assert!(svg.contains("P (fraction of late jobs)"));
    }

    #[test]
    fn all_metrics_render() {
        for m in [Metric::PLate, Metric::Turnaround, Metric::Overhead] {
            let svg = render_svg("fig2", "P vs λ", &fig(), m);
            assert!(svg.contains(m.label()));
        }
    }

    #[test]
    fn escaping_is_applied() {
        let svg = render_svg("fig2", "a<b & c>d", &fig(), Metric::PLate);
        assert!(svg.contains("a&lt;b &amp; c&gt;d"));
        assert!(!svg.contains("a<b & c>d"));
    }

    #[test]
    fn single_point_figures_center() {
        let mut f = fig();
        f.points.truncate(2); // one x category, two series
        let svg = render_svg("fig2", "P vs λ", &f, Metric::Turnaround);
        assert!(svg.contains("circle"));
    }
}
