//! A small line-chart renderer producing standalone SVG.

use std::fmt::Write as _;

/// One plotted series.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points in data space, plotted in the given order.
    pub points: Vec<(f64, f64)>,
    /// Draw point markers (the paper uses diamonds for Fraudar's discrete
    /// operating points).
    pub marker: bool,
}

/// Chart geometry and content.
#[derive(Clone, Debug)]
pub struct Chart {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
    width: f64,
    height: f64,
}

/// Color cycle (colorblind-safe Okabe–Ito subset).
const COLORS: [&str; 6] = [
    "#0072B2", "#D55E00", "#009E73", "#CC79A7", "#E69F00", "#56B4E9",
];

const MARGIN_L: f64 = 62.0;
const MARGIN_R: f64 = 16.0;
const MARGIN_T: f64 = 34.0;
const MARGIN_B: f64 = 46.0;

impl Chart {
    /// Creates an empty chart.
    pub fn new(title: &str, x_label: &str, y_label: &str) -> Self {
        Chart {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            series: Vec::new(),
            width: 560.0,
            height: 400.0,
        }
    }

    /// Adds a series.
    pub fn with_series(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    /// Data-space bounds over every finite point, padded 5%; empty charts
    /// get the unit square.
    fn bounds(&self) -> (f64, f64, f64, f64) {
        let mut pts = self
            .series
            .iter()
            .flat_map(|s| s.points.iter())
            .filter(|p| p.0.is_finite() && p.1.is_finite())
            .peekable();
        if pts.peek().is_none() {
            return (0.0, 1.0, 0.0, 1.0);
        }
        let (mut x0, mut x1, mut y0, mut y1) =
            (f64::INFINITY, f64::NEG_INFINITY, f64::INFINITY, f64::NEG_INFINITY);
        for &(x, y) in pts {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        let pad = |lo: f64, hi: f64| {
            let span = (hi - lo).max(1e-9);
            (lo - 0.05 * span, hi + 0.05 * span)
        };
        let (x0, x1) = pad(x0, x1);
        let (y0, y1) = pad(y0, y1);
        (x0, x1, y0, y1)
    }

    /// Renders the SVG document.
    pub fn render(&self) -> String {
        let (x0, x1, y0, y1) = self.bounds();
        let plot_w = self.width - MARGIN_L - MARGIN_R;
        let plot_h = self.height - MARGIN_T - MARGIN_B;
        let sx = |x: f64| MARGIN_L + (x - x0) / (x1 - x0) * plot_w;
        let sy = |y: f64| MARGIN_T + plot_h - (y - y0) / (y1 - y0) * plot_h;

        let mut out = String::new();
        let _ = write!(
            out,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="11">"#,
            w = self.width,
            h = self.height
        );
        let _ = write!(
            out,
            r#"<rect width="{w}" height="{h}" fill="white"/>"#,
            w = self.width,
            h = self.height
        );
        // Title and axis labels.
        let _ = write!(
            out,
            r#"<text x="{x}" y="20" text-anchor="middle" font-size="13" font-weight="bold">{t}</text>"#,
            x = self.width / 2.0,
            t = escape(&self.title)
        );
        let _ = write!(
            out,
            r#"<text x="{x}" y="{y}" text-anchor="middle">{t}</text>"#,
            x = MARGIN_L + plot_w / 2.0,
            y = self.height - 10.0,
            t = escape(&self.x_label)
        );
        let _ = write!(
            out,
            r#"<text x="14" y="{y}" text-anchor="middle" transform="rotate(-90 14 {y})">{t}</text>"#,
            y = MARGIN_T + plot_h / 2.0,
            t = escape(&self.y_label)
        );

        // Frame + ticks (5 per axis).
        let _ = write!(
            out,
            r##"<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="none" stroke="#444"/>"##,
            x = MARGIN_L,
            y = MARGIN_T,
            w = plot_w,
            h = plot_h
        );
        for i in 0..=4 {
            let f = i as f64 / 4.0;
            let xv = x0 + f * (x1 - x0);
            let yv = y0 + f * (y1 - y0);
            let _ = write!(
                out,
                r##"<line x1="{x}" y1="{t}" x2="{x}" y2="{b}" stroke="#ddd"/><text x="{x}" y="{lb}" text-anchor="middle">{v}</text>"##,
                x = sx(xv),
                t = MARGIN_T,
                b = MARGIN_T + plot_h,
                lb = MARGIN_T + plot_h + 16.0,
                v = tick(xv)
            );
            let _ = write!(
                out,
                r##"<line x1="{l}" y1="{y}" x2="{r}" y2="{y}" stroke="#ddd"/><text x="{lx}" y="{ly}" text-anchor="end">{v}</text>"##,
                l = MARGIN_L,
                r = MARGIN_L + plot_w,
                y = sy(yv),
                lx = MARGIN_L - 6.0,
                ly = sy(yv) + 4.0,
                v = tick(yv)
            );
        }

        // Series.
        for (i, s) in self.series.iter().enumerate() {
            let color = COLORS[i % COLORS.len()];
            let path: Vec<String> = s
                .points
                .iter()
                .filter(|p| p.0.is_finite() && p.1.is_finite())
                .map(|&(x, y)| format!("{:.1},{:.1}", sx(x), sy(y)))
                .collect();
            if path.len() > 1 {
                let _ = write!(
                    out,
                    r#"<polyline points="{p}" fill="none" stroke="{color}" stroke-width="1.8"/>"#,
                    p = path.join(" ")
                );
            }
            if s.marker {
                for &(x, y) in s
                    .points
                    .iter()
                    .filter(|p| p.0.is_finite() && p.1.is_finite())
                {
                    let _ = write!(
                        out,
                        r#"<circle cx="{cx:.1}" cy="{cy:.1}" r="3" fill="{color}"/>"#,
                        cx = sx(x),
                        cy = sy(y)
                    );
                }
            }
            // Legend row.
            let ly = MARGIN_T + 8.0 + i as f64 * 15.0;
            let _ = write!(
                out,
                r#"<line x1="{lx}" y1="{ly}" x2="{lx2}" y2="{ly}" stroke="{color}" stroke-width="2"/><text x="{tx}" y="{ty}">{label}</text>"#,
                lx = MARGIN_L + plot_w - 130.0,
                lx2 = MARGIN_L + plot_w - 112.0,
                tx = MARGIN_L + plot_w - 106.0,
                ty = ly + 4.0,
                label = escape(&s.label)
            );
        }
        out.push_str("</svg>");
        out
    }
}

/// Tick label: compact fixed-point.
fn tick(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{:.0}", v)
    } else if v.abs() >= 10.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.2}", v)
    }
}

/// Escapes XML-significant characters in labels.
fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Chart {
        Chart::new("t", "x", "y").with_series(Series {
            label: "a".into(),
            points: vec![(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)],
            marker: true,
        })
    }

    #[test]
    fn renders_well_formed_svg() {
        let svg = demo().render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 1);
        assert_eq!(svg.matches("<circle").count(), 3);
    }

    #[test]
    fn empty_chart_still_renders_frame() {
        let svg = Chart::new("empty", "x", "y").render();
        assert!(svg.contains("<rect"));
        assert!(!svg.contains("<polyline"));
    }

    #[test]
    fn multiple_series_cycle_colors_and_legend() {
        let mut c = Chart::new("m", "x", "y");
        for i in 0..3 {
            c = c.with_series(Series {
                label: format!("s{i}"),
                points: vec![(0.0, i as f64), (1.0, i as f64)],
                marker: false,
            });
        }
        let svg = c.render();
        assert!(svg.contains("s0") && svg.contains("s1") && svg.contains("s2"));
        assert!(svg.contains(COLORS[0]) && svg.contains(COLORS[2]));
    }

    #[test]
    fn labels_are_escaped() {
        let svg = Chart::new("a < b & c", "x", "y").render();
        assert!(svg.contains("a &lt; b &amp; c"));
        assert!(!svg.contains("a < b"));
    }

    #[test]
    fn nan_points_are_dropped() {
        let svg = Chart::new("n", "x", "y")
            .with_series(Series {
                label: "s".into(),
                points: vec![(0.0, 0.0), (f64::NAN, 1.0), (1.0, 1.0)],
                marker: true,
            })
            .render();
        assert_eq!(svg.matches("<circle").count(), 2);
        assert!(!svg.contains("NaN"));
    }

    #[test]
    fn coordinates_stay_inside_canvas() {
        let svg = demo().render();
        // Crude: every polyline coordinate within [0, 560]×[0, 400].
        let poly = svg.split("points=\"").nth(1).unwrap().split('"').next().unwrap();
        for pair in poly.split(' ') {
            let (x, y) = pair.split_once(',').unwrap();
            let x: f64 = x.parse().unwrap();
            let y: f64 = y.parse().unwrap();
            assert!((0.0..=560.0).contains(&x));
            assert!((0.0..=400.0).contains(&y));
        }
    }
}
