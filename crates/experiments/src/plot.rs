//! Terminal plotting: line charts and sparklines for experiment reports.
//!
//! The paper's figures are timeseries and curves; rendering them directly
//! in the report (instead of only as CSV) makes `experiments fig3` show
//! the 14 daily bumps the caption promises.

/// Renders `series` as a `width × height` ASCII line chart with a y-axis.
/// Values are averaged into `width` columns; each column paints one cell.
pub(crate) fn line_chart(series: &[f64], width: usize, height: usize) -> String {
    if series.is_empty() || width == 0 || height == 0 {
        return String::new();
    }
    let cols = downsample(series, width);
    let lo = cols.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = cols.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);

    let mut rows = vec![vec![b' '; cols.len()]; height];
    for (x, &v) in cols.iter().enumerate() {
        let level = ((v - lo) / span * (height as f64 - 1.0)).round() as usize;
        rows[height - 1 - level][x] = b'*';
    }
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let label = if i == 0 {
            format!("{hi:6.2} |")
        } else if i == height - 1 {
            format!("{lo:6.2} |")
        } else {
            "       |".to_string()
        };
        out.push_str(&label);
        out.push_str(std::str::from_utf8(row).expect("ascii"));
        out.push('\n');
    }
    out.push_str(&format!("       +{}\n", "-".repeat(cols.len())));
    out
}

/// One-line unicode sparkline (8 levels).
pub(crate) fn sparkline(series: &[f64]) -> String {
    const TICKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.is_empty() {
        return String::new();
    }
    let lo = series.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    series
        .iter()
        .map(|&v| {
            let idx = ((v - lo) / span * 7.0).round() as usize;
            TICKS[idx.min(7)]
        })
        .collect()
}

/// Averages `series` into at most `width` buckets.
pub(crate) fn downsample(series: &[f64], width: usize) -> Vec<f64> {
    let n = series.len();
    if n <= width {
        return series.to_vec();
    }
    (0..width)
        .map(|i| {
            let a = i * n / width;
            let b = ((i + 1) * n / width).max(a + 1);
            series[a..b].iter().sum::<f64>() / (b - a) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_dimensions() {
        let series: Vec<f64> = (0..500).map(|i| (i as f64 * 0.05).sin()).collect();
        let chart = line_chart(&series, 60, 10);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 11, "height rows + axis");
        for line in &lines[..10] {
            assert!(line.len() <= 8 + 60);
            assert!(line.contains('|'));
        }
        assert!(lines[10].contains('+'));
    }

    #[test]
    fn chart_shows_extremes_on_axis() {
        let series = vec![0.0, 0.5, 1.0, 0.5, 0.0];
        let chart = line_chart(&series, 5, 5);
        assert!(chart.contains("1.00"), "{chart}");
        assert!(chart.contains("0.00"), "{chart}");
        // One star per column.
        assert_eq!(chart.matches('*').count(), 5);
    }

    #[test]
    fn chart_handles_degenerate_input() {
        assert_eq!(line_chart(&[], 10, 5), "");
        assert_eq!(line_chart(&[1.0], 0, 5), "");
        let flat = line_chart(&vec![0.7; 50], 20, 4);
        assert!(flat.matches('*').count() == 20, "{flat}");
    }

    #[test]
    fn sparkline_levels() {
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s.chars().count(), 2);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn downsample_preserves_mean() {
        let series: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let d = downsample(&series, 10);
        assert_eq!(d.len(), 10);
        let mean_orig = series.iter().sum::<f64>() / 1000.0;
        let mean_down = d.iter().sum::<f64>() / 10.0;
        assert!((mean_orig - mean_down).abs() < 1.0);
        // Short series pass through untouched.
        assert_eq!(downsample(&[1.0, 2.0], 10), vec![1.0, 2.0]);
    }

    #[test]
    fn diurnal_series_paints_daily_bumps() {
        // 7 days of a daily square wave: the chart's top row should carry
        // several distinct bumps.
        let rpd = 131;
        let series: Vec<f64> =
            (0..7 * rpd).map(|i| if (i % rpd) < rpd / 3 { 0.9 } else { 0.3 }).collect();
        let chart = line_chart(&series, 70, 8);
        let top_row = chart.lines().next().unwrap();
        let groups = top_row.split(' ').filter(|s| s.contains('*')).count();
        assert!(groups >= 5, "expected distinct daily bumps, got {groups} in: {top_row}");
    }
}
