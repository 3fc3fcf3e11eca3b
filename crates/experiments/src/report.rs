//! Result tables: console rendering, CSV artifacts, and the verdicts of a
//! figure's checked claims.

use crate::runner::MetricAgg;

/// One point of a figure: a factor value (and series, when the figure
/// compares schedulers) with its aggregated metrics.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Factor label, e.g. `λ=0.0002` or `e_max=50`.
    pub label: String,
    /// Series label, e.g. `MRCP-RM` or `MinEDF-WC`.
    pub series: String,
    /// Aggregated metrics over replications.
    pub agg: MetricAgg,
}

/// A regenerated figure.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// The sweep.
    pub points: Vec<PointResult>,
}

/// One claim judged against a regenerated figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// What the paper (or, for an extra panel, the panel) claims.
    pub claim: &'static str,
    /// Whether the figure bears it out.
    pub pass: bool,
    /// The values the claim was judged on.
    pub measured: String,
}

fn fmt_ci(mean: f64, hw: f64, digits: usize) -> String {
    if hw.is_finite() {
        format!("{mean:.digits$} ±{hw:.digits$}")
    } else {
        format!("{mean:.digits$} ±∞")
    }
}

/// Render a console/markdown table for one figure.
pub fn render_table(name: &str, title: &str, fig: &FigureResult) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {name} — {title}\n\n"));
    out.push_str(
        "| point | series | reps | P (late frac) | N (late jobs) | T (s) | O (s/job) | rejected (frac) |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    for p in &fig.points {
        let pl = p.agg.p_late();
        let n = p.agg.n_late();
        let t = p.agg.turnaround();
        let o = p.agg.overhead();
        let rej = p.agg.rejected();
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
            p.label,
            p.series,
            p.agg.count(),
            fmt_ci(pl.mean, pl.half_width, 4),
            fmt_ci(n.mean, n.half_width, 2),
            fmt_ci(t.mean, t.half_width, 1),
            fmt_ci(o.mean, o.half_width, 5),
            fmt_ci(rej.mean, rej.half_width, 4),
        ));
    }
    out
}

/// Render one `PASS`/`FAIL` line per verdict of figure `name`.
pub fn render_verdicts(name: &str, verdicts: &[Verdict]) -> String {
    verdicts
        .iter()
        .map(|v| {
            let status = if v.pass { "PASS" } else { "FAIL" };
            format!("{status} {name}: {} — {}\n", v.claim, v.measured)
        })
        .collect()
}

/// One CSV field per RFC 4180: quoted, with inner quotes doubled, when it
/// holds a comma, a quote or a line break.
fn csv_field(s: &str) -> std::borrow::Cow<'_, str> {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\"")).into()
    } else {
        s.into()
    }
}

/// Render CSV rows (with header) for figure `name`.
pub fn render_csv(name: &str, fig: &FigureResult) -> String {
    let mut out = String::from(
        "figure,point,series,reps,p_late,p_late_hw,n_late,n_late_hw,turnaround_s,turnaround_hw,overhead_s,overhead_hw,rejected_frac,rejected_hw\n",
    );
    for p in &fig.points {
        let pl = p.agg.p_late();
        let n = p.agg.n_late();
        let t = p.agg.turnaround();
        let o = p.agg.overhead();
        let rej = p.agg.rejected();
        out.push_str(&format!(
            "{},{},{},{},{:.6},{:.6},{:.3},{:.3},{:.3},{:.3},{:.6},{:.6},{:.6},{:.6}\n",
            csv_field(name),
            csv_field(&p.label),
            csv_field(&p.series),
            p.agg.count(),
            pl.mean,
            pl.half_width,
            n.mean,
            n.half_width,
            t.mean,
            t.half_width,
            o.mean,
            o.half_width,
            rej.mean,
            rej.half_width,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Sample;

    fn fig() -> FigureResult {
        let mut agg = MetricAgg::new();
        agg.push(Sample {
            p_late: 0.05,
            n_late: 5.0,
            turnaround_s: 120.0,
            overhead_s: 0.004,
            rejected_frac: 0.02,
        });
        agg.push(Sample {
            p_late: 0.07,
            n_late: 7.0,
            turnaround_s: 130.0,
            overhead_s: 0.006,
            rejected_frac: 0.04,
        });
        FigureResult {
            points: vec![PointResult {
                label: "m=50".into(),
                series: "MRCP-RM".into(),
                agg,
            }],
        }
    }

    #[test]
    fn table_contains_all_metrics() {
        let t = render_table("fig9", "Effect of the number of resources", &fig());
        assert!(t.contains("fig9"));
        assert!(t.contains("m=50"));
        assert!(t.contains("MRCP-RM"));
        assert!(t.contains("| 2 |"), "rep count rendered: {t}");
        assert!(t.contains("0.0600"), "mean P rendered: {t}");
        assert!(t.contains("125.0"), "mean T rendered: {t}");
        assert!(t.contains("0.0300"), "mean rejected frac rendered: {t}");
    }

    #[test]
    fn one_line_per_verdict() {
        let verdict = |pass| Verdict {
            claim: "P falls",
            pass,
            measured: "P [0.1, 0]".into(),
        };
        assert_eq!(
            render_verdicts("fig7", &[verdict(true), verdict(false)]),
            "PASS fig7: P falls — P [0.1, 0]\nFAIL fig7: P falls — P [0.1, 0]\n"
        );
    }

    #[test]
    fn csv_round_numbers() {
        let c = render_csv("fig9", &fig());
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("figure,point,series"));
        assert!(lines[0].ends_with("rejected_frac,rejected_hw"));
        assert!(lines[1].starts_with("fig9,m=50,MRCP-RM,2,0.060000"));
        assert!(lines[1].contains(",0.030000,"), "rejected column: {c}");
    }

    /// The fields of one RFC 4180 record (no embedded line breaks).
    fn csv_fields(line: &str) -> Vec<String> {
        let (mut fields, mut field, mut quoted) = (Vec::new(), String::new(), false);
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match (c, quoted) {
                ('"', true) if chars.peek() == Some(&'"') => {
                    field.push('"');
                    chars.next();
                }
                ('"', _) => quoted = !quoted,
                (',', false) => fields.push(std::mem::take(&mut field)),
                _ => field.push(c),
            }
        }
        fields.push(field);
        fields
    }

    #[test]
    fn csv_rows_keep_the_header_width() {
        let mut f = fig();
        let mut odd = f.points[0].clone();
        odd.series = "batched ingest (max_batch=16, linger=8s)".into();
        f.points.push(odd.clone());
        odd.label = "say \"hi\", twice".into();
        f.points.push(odd);
        let c = render_csv("service", &f);
        let rows: Vec<Vec<String>> = c.lines().map(csv_fields).collect();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.len(), rows[0].len(), "{row:?}");
        }
        assert_eq!(rows[2][2], "batched ingest (max_batch=16, linger=8s)");
        assert_eq!(rows[3][1], "say \"hi\", twice");
    }
}
