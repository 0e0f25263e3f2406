//! The solved temperature field and its queries.

use ehp_package::geometry::{Point, Rect};
use ehp_sim_core::units::Celsius;

/// A temperature field sampled on a regular grid over a package outline.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperatureField {
    origin: Point,
    cell_w: f64,
    cell_h: f64,
    /// Row-major: `data[j][i]` is the cell at column `i`, row `j`.
    data: Vec<Vec<f64>>,
    iterations: usize,
    error_bound_c: f64,
}

impl TemperatureField {
    /// Wraps solved data, taken as exact: [`Self::iterations`] is 0 and
    /// [`Self::error_bound_c`] is 0.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or ragged, or cell sizes are not
    /// positive.
    #[must_use]
    pub fn new(origin: Point, cell_w: f64, cell_h: f64, data: Vec<Vec<f64>>) -> TemperatureField {
        assert!(cell_w > 0.0 && cell_h > 0.0, "cell size must be positive");
        assert!(
            !data.is_empty() && !data[0].is_empty(),
            "field must be non-empty"
        );
        let w = data[0].len();
        assert!(
            data.iter().all(|r| r.len() == w),
            "field must be rectangular"
        );
        TemperatureField {
            origin,
            cell_w,
            cell_h,
            data,
            iterations: 0,
            error_bound_c: 0.0,
        }
    }

    /// Records how the solver that produced this field terminated.
    pub(crate) fn with_convergence(mut self, iterations: usize, error_bound_c: f64) -> Self {
        self.iterations = iterations;
        self.error_bound_c = error_bound_c;
        self
    }

    /// Relaxation sweeps the solver ran to produce this field.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Proven upper bound on the max per-cell temperature error (°C)
    /// against the exact steady state of the discretised model. Above
    /// the solver's `tolerance_c` only when it stopped at `max_iters`.
    #[must_use]
    pub fn error_bound_c(&self) -> f64 {
        self.error_bound_c
    }

    /// Grid dimensions `(nx, ny)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        (self.data[0].len(), self.data.len())
    }

    /// Temperature of cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> Celsius {
        Celsius(self.data[j][i])
    }

    /// Temperature at a package-coordinate point (nearest cell); `None`
    /// outside the grid.
    #[must_use]
    pub fn sample(&self, p: Point) -> Option<Celsius> {
        let i = ((p.x - self.origin.x) / self.cell_w).floor();
        let j = ((p.y - self.origin.y) / self.cell_h).floor();
        if i < 0.0 || j < 0.0 {
            return None;
        }
        let (i, j) = (i as usize, j as usize);
        let (nx, ny) = self.dims();
        (i < nx && j < ny).then(|| Celsius(self.data[j][i]))
    }

    /// Maximum temperature and its cell.
    #[must_use]
    pub fn max(&self) -> (f64, (usize, usize)) {
        let mut best = (f64::NEG_INFINITY, (0, 0));
        for (j, row) in self.data.iter().enumerate() {
            for (i, &t) in row.iter().enumerate() {
                if t > best.0 {
                    best = (t, (i, j));
                }
            }
        }
        best
    }

    /// Minimum temperature.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.data
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean temperature over the cells whose centres fall in `r`;
    /// `None` if no cell does.
    #[must_use]
    pub fn mean_over(&self, r: &Rect) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0u32;
        for (j, row) in self.data.iter().enumerate() {
            for (i, &t) in row.iter().enumerate() {
                let c = Point::new(
                    self.origin.x + (i as f64 + 0.5) * self.cell_w,
                    self.origin.y + (j as f64 + 0.5) * self.cell_h,
                );
                if r.contains(c) {
                    sum += t;
                    n += 1;
                }
            }
        }
        (n > 0).then(|| sum / f64::from(n))
    }

    /// Renders the field as a coarse ASCII heat map (for the figure
    /// binaries): `levels` characters from cold to hot.
    #[must_use]
    pub fn ascii_map(&self, levels: &str) -> String {
        assert!(!levels.is_empty());
        let chars: Vec<char> = levels.chars().collect();
        let (max, _) = self.max();
        let min = self.min();
        let span = (max - min).max(1e-9);
        let mut out = String::new();
        // Render top row (max y) first.
        for row in self.data.iter().rev() {
            for &t in row {
                let idx = (((t - min) / span) * (chars.len() as f64 - 1.0)).round() as usize;
                out.push(chars[idx.min(chars.len() - 1)]);
            }
            out.push('\n');
        }
        out
    }

    /// Raw rows (row-major, bottom row first).
    #[must_use]
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> TemperatureField {
        TemperatureField::new(
            Point::new(0.0, 0.0),
            1.0,
            1.0,
            vec![vec![10.0, 20.0], vec![30.0, 40.0]],
        )
    }

    #[test]
    fn dims_and_at() {
        let f = field();
        assert_eq!(f.dims(), (2, 2));
        assert_eq!(f.at(1, 1).as_f64(), 40.0);
    }

    #[test]
    fn sample_nearest_cell() {
        let f = field();
        assert_eq!(f.sample(Point::new(0.5, 0.5)).unwrap().as_f64(), 10.0);
        assert_eq!(f.sample(Point::new(1.5, 1.5)).unwrap().as_f64(), 40.0);
        assert_eq!(f.sample(Point::new(-1.0, 0.0)), None);
        assert_eq!(f.sample(Point::new(5.0, 0.0)), None);
    }

    #[test]
    fn max_min() {
        let f = field();
        let (t, (i, j)) = f.max();
        assert_eq!((t, i, j), (40.0, 1, 1));
        assert_eq!(f.min(), 10.0);
    }

    #[test]
    fn mean_over_region() {
        let f = field();
        let m = f.mean_over(&Rect::new(0.0, 0.0, 2.0, 1.0)).unwrap();
        assert!((m - 15.0).abs() < 1e-12);
        assert_eq!(f.mean_over(&Rect::new(10.0, 10.0, 1.0, 1.0)), None);
    }

    #[test]
    fn ascii_map_shape() {
        let f = field();
        let map = f.ascii_map(".:*#");
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 2);
        // Hottest cell (top-right in render) is '#', coldest '.'.
        assert_eq!(lines[0].chars().nth(1), Some('#'));
        assert_eq!(lines[1].chars().next(), Some('.'));
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn ragged_field_panics() {
        let _ = TemperatureField::new(
            Point::new(0.0, 0.0),
            1.0,
            1.0,
            vec![vec![1.0], vec![1.0, 2.0]],
        );
    }
}
