//! Text renderers: ASCII CDF plots, the Figure 3 panels, Table 2, and CSV
//! emitters — what the bench harnesses print so a reader can compare
//! against the paper's figures directly.

use crate::domains::OperatorRow;
use crate::resolvers::RcodeShares;
use crate::stats::Cdf;

/// Render an ASCII CDF plot: y = % of population, x = sample value
/// (clipped to `x_max`), like Figure 1's axes.
pub fn render_cdf(title: &str, cdf: &Cdf, x_max: u32) -> String {
    const WIDTH: usize = 60;
    const HEIGHT: usize = 16;
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    if cdf.is_empty() {
        out.push_str("  (no samples)\n");
        return out;
    }
    let mut grid = vec![vec![' '; WIDTH]; HEIGHT];
    for (col, x) in (0..WIDTH).map(|c| {
        (
            c,
            (c as f64 / (WIDTH - 1) as f64 * x_max as f64).round() as u32,
        )
    }) {
        let frac = cdf.fraction_at_most(x);
        let row = ((1.0 - frac) * (HEIGHT - 1) as f64).round() as usize;
        grid[row.min(HEIGHT - 1)][col] = '*';
    }
    for (i, row) in grid.iter().enumerate() {
        let pct_label = 100.0 - (i as f64 / (HEIGHT - 1) as f64 * 100.0);
        out.push_str(&format!("{pct_label:5.0} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("      +{}\n", "-".repeat(WIDTH)));
    out.push_str(&format!("       0{:>width$}\n", x_max, width = WIDTH - 1));
    out
}

/// Render one Figure 3 panel: three share curves vs iteration count.
pub fn render_figure3_panel(title: &str, series: &[RcodeShares]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str("      N  NXDOMAIN  AD+NXDOMAIN  SERVFAIL\n");
    for p in series {
        out.push_str(&format!(
            "  {:>5}  {:>7.1}%  {:>10.1}%  {:>7.1}%\n",
            p.n, p.nxdomain, p.ad_nxdomain, p.servfail
        ));
    }
    out
}

/// Figure 3 panel as CSV (`n,nxdomain,ad_nxdomain,servfail`).
pub fn figure3_csv(series: &[RcodeShares]) -> String {
    let mut out = String::from("n,nxdomain_pct,ad_nxdomain_pct,servfail_pct\n");
    for p in series {
        out.push_str(&format!(
            "{},{:.3},{:.3},{:.3}\n",
            p.n, p.nxdomain, p.ad_nxdomain, p.servfail
        ));
    }
    out
}

/// Render the Table 2 reproduction.
pub fn render_table2(rows: &[OperatorRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Auth. name server operator          #NSEC3 domains   share    iterations/salt-bytes\n",
    );
    out.push_str(&"-".repeat(92));
    out.push('\n');
    for row in rows {
        let params: Vec<String> = row
            .params
            .iter()
            .filter(|(_, _, share)| *share >= 0.05)
            .map(|(it, salt, _)| format!("{it}/{salt}"))
            .collect();
        out.push_str(&format!(
            "{:<36}{:>15}  {:>5.1} %   {}\n",
            row.operator,
            row.count,
            row.share_pct,
            params.join(", ")
        ));
    }
    out
}

/// CDF points as CSV (`x,pct_at_most`).
pub fn cdf_csv(cdf: &Cdf) -> String {
    let mut out = String::from("x,pct_at_most\n");
    for (x, p) in cdf.points() {
        out.push_str(&format!("{x},{p:.3}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Cdf;

    #[test]
    fn cdf_plot_contains_axes_and_stars() {
        let cdf = Cdf::from_samples([0, 0, 1, 5, 10, 50]);
        let plot = render_cdf("iterations", &cdf, 50);
        assert!(plot.starts_with("iterations\n"));
        assert!(plot.contains('*'));
        assert!(plot.contains("100 |"));
        assert!(plot.contains("    0 |"));
    }

    #[test]
    fn empty_cdf_plot() {
        let plot = render_cdf("t", &Cdf::from_samples([]), 10);
        assert!(plot.contains("no samples"));
    }

    #[test]
    fn figure3_text_and_csv() {
        let series = vec![
            RcodeShares {
                n: 1,
                nxdomain: 99.0,
                ad_nxdomain: 95.0,
                servfail: 1.0,
            },
            RcodeShares {
                n: 151,
                nxdomain: 60.0,
                ad_nxdomain: 10.0,
                servfail: 39.0,
            },
        ];
        let text = render_figure3_panel("(a) Open, IPv4", &series);
        assert!(text.contains("(a) Open, IPv4"));
        assert!(text.contains("151"));
        let csv = figure3_csv(&series);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().nth(2).unwrap().starts_with("151,60.000"));
    }

    #[test]
    fn table2_render() {
        let rows = vec![OperatorRow {
            operator: "squarespacedns.example.".into(),
            count: 6_130_794,
            share_pct: 39.4,
            params: vec![(1, 8, 100.0)],
        }];
        let table = render_table2(&rows);
        assert!(table.contains("squarespacedns.example."));
        assert!(table.contains("39.4"));
        assert!(table.contains("1/8"));
    }

    #[test]
    fn cdf_csv_lists_points() {
        let csv = cdf_csv(&Cdf::from_samples([0, 0, 8]));
        assert!(csv.contains("0,66.667"));
        assert!(csv.contains("8,100.000"));
    }
}
