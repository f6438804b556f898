//! The paper's evaluation (§5) as four renderings of one campaign:
//! [`run_paper`] enacts the Bronze-Standard workflow on the simulated
//! EGEE grid once — the table sizes under every repeat, the figure's
//! extra sizes under the first — and Table 1, Table 2, the §5.2/§5.3
//! comparisons and Fig. 10 are each a pure function of those cells.

use crate::campaign::{
    mean_series, run_campaign, samples, CampaignSpec, Cell, PAPER_SIZES, QUICK_SIZES,
};
use moteur::MoteurError;
use moteur_analysis::{bootstrap_mean_ci, compare, fmt_secs, render_chart, Series, Table};
use std::fmt::Write as _;

/// Fig. 10's x axis: a denser size grid than Table 1.
const FIGURE_SIZES: [usize; 5] = [12, 40, 66, 96, 126];
const QUICK_FIGURE_SIZES: [usize; 4] = [2, 6, 10, 14];

/// The four documents `moteur-bench paper` writes, as (file, text).
pub type PaperDocuments = [(&'static str, String); 4];

/// Enact the paper's campaign once and render its four documents.
/// `quick` swaps the paper's sizes for ones that finish in seconds.
pub fn run_paper(quick: bool, seed: u64, repeats: usize) -> Result<PaperDocuments, MoteurError> {
    let (sizes, figure_sizes): (&[usize], &[usize]) = if quick {
        (&QUICK_SIZES, &QUICK_FIGURE_SIZES)
    } else {
        (&PAPER_SIZES, &FIGURE_SIZES)
    };
    let figure_only: Vec<usize> = figure_sizes
        .iter()
        .copied()
        .filter(|n| !sizes.contains(n))
        .collect();
    let mut cells = run_campaign(&CampaignSpec::paper(sizes, seed, repeats))?;
    cells.extend(run_campaign(&CampaignSpec::paper(&figure_only, seed, 1))?);
    let series = mean_series(&cells, sizes);
    Ok([
        ("table1.txt", table1(&cells, sizes, &series)),
        ("table2.txt", table2(&series)),
        ("speedups.txt", speedups(&series)),
        ("fig10.txt", fig10(&cells, figure_sizes)),
    ])
}

/// E1 — **Table 1**: execution time (s) for each optimization
/// configuration at each size, the mean over the repeats with a 95 %
/// bootstrap interval when there are several.
fn table1(cells: &[Cell], sizes: &[usize], series: &[Series]) -> String {
    let mut header: Vec<String> = vec!["Configuration".into()];
    header.extend(sizes.iter().map(|n| format!("{n} pairs")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);
    for s in series {
        let mut row = vec![s.label.clone()];
        for (&n, (_, t)) in sizes.iter().zip(&s.points) {
            // 95% bootstrap CI over the seed repeats.
            let samples = samples(cells, &s.label, n);
            let ci = (samples.len() > 1).then(|| bootstrap_mean_ci(&samples, 400, 0.95, 42));
            match ci.flatten() {
                Some(ci) => row.push(format!(
                    "{} [{}..{}]",
                    fmt_secs(*t),
                    fmt_secs(ci.lo),
                    fmt_secs(ci.hi)
                )),
                None => row.push(fmt_secs(*t)),
            }
        }
        table.add_row(row);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 reproduction - execution time (s) per configuration"
    );
    let _ = writeln!(
        out,
        "(paper, 12/66/126 pairs: NOP 32855/76354/133493 ... SP+DP+JG 5524/9053/14547)"
    );
    let _ = writeln!(out, "\n{}", table.render());

    // Jobs submitted per configuration at the largest size.
    let largest = *sizes.last().expect("non-empty sizes");
    for s in series {
        let at_largest = cells
            .iter()
            .find(|c| c.config.label() == s.label && c.n_data == largest);
        if let Some(c) = at_largest {
            let _ = writeln!(
                out,
                "{:10} {} jobs submitted at {} pairs",
                s.label, c.jobs_submitted, c.n_data
            );
        }
    }
    out
}

/// E2 — **Table 2**: y-intercept (s) and slope (s/data set) of the
/// execution-time-vs-size regression line of each configuration, as in
/// paper §5.1.
fn table2(series: &[Series]) -> String {
    let mut table = Table::new(&[
        "Configuration",
        "y-intercept (s)",
        "slope (s/data set)",
        "r^2",
    ]);
    for s in series {
        match s.fit() {
            Some(line) => table.add_row(vec![
                s.label.clone(),
                fmt_secs(line.intercept),
                format!("{:.0}", line.slope),
                format!("{:.3}", line.r_squared),
            ]),
            None => table.add_row(vec![s.label.clone(), "-".into(), "-".into(), "-".into()]),
        }
    }
    format!(
        "Table 2 reproduction - linear regression of execution time vs data-set size\n\
         (paper: NOP 20784/884, JG 11093/900, SP 6382/897, DP 16328/143,\n \
         SP+DP 6625/88, SP+DP+JG 4310/79)\n\n\
         {}\n\
         Expected shape: DP-enabled rows collapse the slope (data scalability);\n\
         JG rows mainly lower the intercept (infrastructure overhead).\n",
        table.render()
    )
}

/// E8 — the §5.2/§5.3 analysis: speed-ups, slope ratios and y-intercept
/// ratios between configurations, next to the paper's measured values.
fn speedups(series: &[Series]) -> String {
    let get = |label: &str| -> &Series {
        series
            .iter()
            .find(|s| s.label == label)
            .expect("campaign produces all labels")
    };
    let cases = [
        ("DP", "NOP", "S5.2 DP vs NOP           (paper speed-ups 1.86/2.89/3.92, slope ratio 6.18, y-int ratio 1.27)"),
        ("SP+DP", "DP", "S5.2 (DP+SP) vs DP       (paper speed-ups 2.26/2.17/1.90, slope ratio 1.62, y-int ratio 2.46)"),
        ("JG", "NOP", "S5.3 JG vs NOP           (paper speed-ups 1.43/1.12/1.06, slope ratio 0.98, y-int ratio 1.87)"),
        ("SP+DP+JG", "SP+DP", "S5.3 (JG+SP+DP) vs SP+DP (paper speed-ups 1.42/1.34/1.23, slope ratio 1.11, y-int ratio 1.54)"),
        ("SP+DP+JG", "NOP", "abstract: full optimization vs NOP (paper ~9x at 126 pairs)"),
    ];
    let mut out = String::new();
    for (analyzed, reference, caption) in cases {
        let c = compare(get(reference), get(analyzed));
        let _ = writeln!(out, "{caption}");
        let sp: Vec<String> = c
            .speedups
            .iter()
            .map(|(n, s)| format!("{s:.2}x @ {n:.0}"))
            .collect();
        let _ = writeln!(out, "  measured speed-ups: {}", sp.join(", "));
        let _ = writeln!(
            out,
            "  measured slope ratio: {}   y-intercept ratio: {}\n",
            c.slope_ratio.map_or("-".into(), |r| format!("{r:.2}")),
            c.y_intercept_ratio
                .map_or("-".into(), |r| format!("{r:.2}")),
        );
    }
    out.push_str(
        "Shape claims to check: DP dominates the slope ratio; JG and SP mainly\n\
         improve the y-intercept; SP yields a real speed-up on top of DP even\n\
         though the constant-time model predicts none.\n",
    );
    out
}

/// E3 — **Figure 10**: execution time (hours) against the number of
/// input image pairs, one curve per configuration: the first repeat's
/// cells at `sizes`, as an ASCII chart plus the raw series.
fn fig10(cells: &[Cell], sizes: &[usize]) -> String {
    let first: Vec<Cell> = cells.iter().filter(|c| c.repeat == 0).copied().collect();
    let series = mean_series(&first, sizes);
    let mut out = format!(
        "Figure 10 reproduction - execution time vs number of input image pairs\n\n\
         {}\n\
         raw series (seconds):\n",
        render_chart(&series, 72, 24, true, "number of input image pairs")
    );
    for s in &series {
        let pts: Vec<String> = s
            .points
            .iter()
            .map(|(n, t)| format!("({n:.0}, {t:.0})"))
            .collect();
        let _ = writeln!(out, "  {:10} {}", s.label, pts.join(" "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One set of cells, not four: two runs write the same bytes, and
    /// the means Table 1 prints are the points Table 2 fits.
    #[test]
    fn the_four_documents_are_renderings_of_one_set_of_cells() {
        let once = run_paper(true, 7, 2).unwrap();
        let twice = run_paper(true, 7, 2).unwrap();
        assert_eq!(once, twice);
        let files: Vec<&str> = once.iter().map(|(file, _)| *file).collect();
        assert_eq!(
            files,
            ["table1.txt", "table2.txt", "speedups.txt", "fig10.txt"]
        );

        let cells = run_campaign(&CampaignSpec::paper(&QUICK_SIZES, 7, 2)).unwrap();
        let series = mean_series(&cells, &QUICK_SIZES);
        assert_eq!(once[0].1, table1(&cells, &QUICK_SIZES, &series));
        assert_eq!(once[1].1, table2(&series));
        for s in &series {
            let fit = s.fit().expect("three sizes fit a line");
            let row = format!("{:.0}  {:.3}\n", fit.slope, fit.r_squared);
            assert!(once[1].1.contains(&row), "{}: {row:?}", s.label);
            for (_, mean) in &s.points {
                let cell = format!(" {} [", fmt_secs(*mean));
                assert!(once[0].1.contains(&cell), "{}: {cell:?}", s.label);
            }
        }
    }

    #[test]
    fn one_repeat_prints_plain_means_and_the_figure_uses_its_own_sizes() {
        let [(_, table1), _, _, (_, fig10)] = run_paper(true, 7, 1).unwrap();
        assert!(!table1.contains('['), "{table1}");
        assert!(table1.contains("jobs submitted at 16 pairs"), "{table1}");
        assert!(fig10.contains("(2, "), "{fig10}");
        assert!(fig10.contains("(14, "), "{fig10}");
        assert!(!fig10.contains("(16, "), "{fig10}");
    }
}
