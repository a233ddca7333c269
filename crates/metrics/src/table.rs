//! Text rendering for experiment reports: aligned tables and the grey-scale
//! heatmaps the paper uses for Figs 2, 9, 15 and 19.

/// Render rows as an aligned plain-text table with a header.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// A labelled 2-D grid of values, rendered both numerically and as a
/// grey-scale glyph map (darker = higher), mirroring the paper's heatmaps.
pub struct Heatmap {
    /// Label of the x axis (columns).
    pub x_label: String,
    /// Label of the y axis (rows).
    pub y_label: String,
    /// Column tick labels.
    pub x_ticks: Vec<String>,
    /// Row tick labels.
    pub y_ticks: Vec<String>,
    /// `values[row][col]`.
    pub values: Vec<Vec<f64>>,
    /// Value mapped to the lightest glyph.
    pub lo: f64,
    /// Value mapped to the darkest glyph.
    pub hi: f64,
}

const SHADES: &[char] = &[' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

impl Heatmap {
    /// Glyph for a value in `[lo, hi]`.
    fn shade(&self, v: f64) -> char {
        if !v.is_finite() {
            return '?';
        }
        let t = ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        let idx = (t * (SHADES.len() - 1) as f64).round() as usize;
        SHADES[idx]
    }

    /// Render the numeric grid followed by the glyph map.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("rows: {}   cols: {}\n", self.y_label, self.x_label));

        let mut header = vec![""];
        let ticks: Vec<&str> = self.x_ticks.iter().map(String::as_str).collect();
        header.extend(ticks);
        let rows: Vec<Vec<String>> = self
            .y_ticks
            .iter()
            .zip(&self.values)
            .map(|(ytick, row)| {
                let mut cells = vec![ytick.clone()];
                cells.extend(row.iter().map(|v| format!("{v:.2}")));
                cells
            })
            .collect();
        out.push_str(&render_table(&header, &rows));

        out.push('\n');
        for (ytick, row) in self.y_ticks.iter().zip(&self.values) {
            let glyphs: String = row.iter().flat_map(|&v| [self.shade(v), ' ']).collect();
            out.push_str(&format!("{ytick:>6} |{glyphs}|\n"));
        }
        out.push_str(&format!(
            "        (glyph scale: ' '={} .. '@'={}, darker is higher)\n",
            self.lo, self.hi
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns() {
        let s = render_table(
            &["a", "bbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("bbb"));
        assert!(lines[2].ends_with("  2"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_jagged_rows() {
        render_table(&["a", "b"], &[vec!["1".into()]]);
    }

    fn map() -> Heatmap {
        Heatmap {
            x_label: "x".into(),
            y_label: "y".into(),
            x_ticks: vec!["0.3".into(), "8.6".into()],
            y_ticks: vec!["0.3".into(), "8.6".into()],
            values: vec![vec![0.0, 0.5], vec![1.0, f64::NAN]],
            lo: 0.0,
            hi: 1.0,
        }
    }

    #[test]
    fn heatmap_shades_extremes() {
        let h = map();
        assert_eq!(h.shade(0.0), ' ');
        assert_eq!(h.shade(1.0), '@');
        assert_eq!(h.shade(2.0), '@'); // clamped
        assert_eq!(h.shade(f64::NAN), '?');
    }

    #[test]
    fn heatmap_renders_all_rows() {
        let r = map().render();
        assert!(r.contains("0.3"));
        assert!(r.contains('@'));
        assert!(r.contains('?'));
        assert!(r.contains("darker is higher"));
    }
}
