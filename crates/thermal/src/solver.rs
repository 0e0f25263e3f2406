//! The steady-state red-black SOR heat solver (DESIGN.md §17).

use ehp_package::floorplan::Floorplan;
use ehp_package::geometry::Point;

use crate::field::TemperatureField;

/// Solver parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalConfig {
    /// Grid cells along x.
    pub nx: usize,
    /// Grid cells along y.
    pub ny: usize,
    /// Lateral conduction coefficient between adjacent cells (W/K).
    /// Captures spreading through silicon, lid and heat pipes.
    pub lateral_w_per_k: f64,
    /// Vertical heat-extraction coefficient to the cold plate
    /// (W/(K·mm²)).
    pub htc_w_per_k_mm2: f64,
    /// Coolant / cold-plate temperature (°C).
    pub coolant_c: f64,
    /// Bound on the max per-cell temperature error (°C): the solve stops
    /// once `max|b − A·T| / (h·A_cell)`, a proven bound on that error,
    /// falls below it.
    pub tolerance_c: f64,
    /// Cap on relaxation sweeps. A solve that reaches it returns a field
    /// whose [`TemperatureField::error_bound_c`] exceeds `tolerance_c`.
    pub max_iters: usize,
}

impl Default for ThermalConfig {
    fn default() -> ThermalConfig {
        ThermalConfig {
            nx: 70,
            ny: 56,
            lateral_w_per_k: 2.0,
            htc_w_per_k_mm2: 0.02,
            coolant_c: 30.0,
            tolerance_c: 1e-4,
            max_iters: 20_000,
        }
    }
}

/// Sweeps between evaluations of the residual bound; each evaluation
/// costs about one sweep.
const CHECK_EVERY: usize = 4;

/// The discretised heat balance `A·θ = p` on the excess temperature
/// `θ = T − T_cool` over a row-major `nx × ny` grid:
/// `(A·θ)_k = (g·n_k + h)·θ_k − g·Σ θ_neighbour`, with `n_k` the cell's
/// in-grid neighbour count (package edges are insulated).
struct Stencil {
    nx: usize,
    ny: usize,
    /// Lateral conductance between adjacent cells (W/K).
    g: f64,
    /// Vertical conductance of one cell to the cold plate (W/K).
    h: f64,
    /// Per-cell power input (W).
    p: Vec<f64>,
}

impl Stencil {
    /// For cell `(i, j)`: the sum of its in-grid neighbours' `θ` and its
    /// diagonal entry `g·n + h`.
    #[inline]
    fn neighbours(&self, theta: &[f64], i: usize, j: usize) -> (f64, f64) {
        let k = j * self.nx + i;
        let mut sum = 0.0;
        let mut n = 0.0;
        if i > 0 {
            sum += theta[k - 1];
            n += 1.0;
        }
        if i + 1 < self.nx {
            sum += theta[k + 1];
            n += 1.0;
        }
        if j > 0 {
            sum += theta[k - self.nx];
            n += 1.0;
        }
        if j + 1 < self.ny {
            sum += theta[k + self.nx];
            n += 1.0;
        }
        (sum, self.g * n + self.h)
    }

    /// The over-relaxation factor `ω = 2 / (1 + √(1 − ρ²))` for the
    /// Jacobi spectral-radius estimate `ρ = 4g / (4g + h)`.
    fn omega(&self) -> f64 {
        let rho = 4.0 * self.g / (4.0 * self.g + self.h);
        2.0 / (1.0 + (1.0 - rho * rho).sqrt())
    }

    /// One red-black SOR sweep: every cell with `(i + j)` even, then
    /// every odd one. Each colour reads only the other, so the result
    /// does not depend on the order within a colour.
    fn sweep(&self, theta: &mut [f64], omega: f64) {
        // lint:hot-path
        for colour in 0..2 {
            for j in 0..self.ny {
                for i in ((j + colour) % 2..self.nx).step_by(2) {
                    let k = j * self.nx + i;
                    let (sum, diag) = self.neighbours(theta, i, j);
                    let gs = (self.g * sum + self.p[k]) / diag;
                    theta[k] += omega * (gs - theta[k]);
                }
            }
        }
        // lint:hot-path-end
    }

    /// `max|p − A·θ| / h`. Every row of `A` sums to `h` and `A` is an
    /// M-matrix, so `‖A⁻¹‖∞ = 1/h` and this bounds `max|θ − θ_exact|`.
    fn error_bound(&self, theta: &[f64]) -> f64 {
        // lint:hot-path
        let mut worst: f64 = 0.0;
        for j in 0..self.ny {
            for i in 0..self.nx {
                let k = j * self.nx + i;
                let (sum, diag) = self.neighbours(theta, i, j);
                let r = self.p[k] + self.g * sum - diag * theta[k];
                worst = worst.max(r.abs());
            }
        }
        worst / self.h
        // lint:hot-path-end
    }
}

/// The finite-difference solver.
#[derive(Debug, Clone, Copy)]
pub struct ThermalSolver {
    cfg: ThermalConfig,
}

impl ThermalSolver {
    /// Creates a solver.
    ///
    /// # Panics
    ///
    /// Panics on non-positive grid dimensions or coefficients.
    #[must_use]
    pub fn new(cfg: ThermalConfig) -> ThermalSolver {
        assert!(cfg.nx > 0 && cfg.ny > 0, "grid must be non-empty");
        assert!(
            cfg.lateral_w_per_k > 0.0 && cfg.htc_w_per_k_mm2 > 0.0,
            "conductances must be positive"
        );
        ThermalSolver { cfg }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ThermalConfig {
        &self.cfg
    }

    /// Solves the steady-state field for a floorplan's assigned powers.
    ///
    /// Red-black SOR from the coolant temperature, stopping once the
    /// residual bound drops below `tolerance_c` (checked every 4 sweeps)
    /// or at `max_iters` sweeps; the returned field records both the
    /// sweep count and the bound.
    #[must_use]
    pub fn solve(&self, fp: &Floorplan) -> TemperatureField {
        let c = &self.cfg;
        let outline = fp.outline();
        let cell_w = outline.w / c.nx as f64;
        let cell_h = outline.h / c.ny as f64;
        let cell_area = cell_w * cell_h;

        // Per-cell power input (W): density grid × cell area.
        let p = fp
            .power_density_grid(c.nx, c.ny)
            .into_iter()
            .flatten()
            .map(|d| d * cell_area)
            .collect();
        let stencil = Stencil {
            nx: c.nx,
            ny: c.ny,
            g: c.lateral_w_per_k,
            h: c.htc_w_per_k_mm2 * cell_area,
            p,
        };
        let omega = stencil.omega();

        let mut theta = vec![0.0; c.nx * c.ny];
        let mut sweeps = 0;
        let mut bound = stencil.error_bound(&theta);
        while bound >= c.tolerance_c && sweeps < c.max_iters {
            let batch = CHECK_EVERY.min(c.max_iters - sweeps);
            for _ in 0..batch {
                stencil.sweep(&mut theta, omega);
            }
            sweeps += batch;
            bound = stencil.error_bound(&theta);
        }

        let rows = theta
            .chunks(c.nx)
            .map(|row| row.iter().map(|t| t + c.coolant_c).collect())
            .collect();
        TemperatureField::new(
            Point::new(outline.origin.x, outline.origin.y),
            cell_w,
            cell_h,
            rows,
        )
        .with_convergence(sweeps, bound)
    }

    /// Energy-balance check: at the solved field, extracted heat should
    /// match injected power within `rel_tol`.
    ///
    /// # Errors
    ///
    /// Returns `(injected, extracted)` watts on imbalance.
    pub fn check_balance(
        &self,
        fp: &Floorplan,
        field: &TemperatureField,
        rel_tol: f64,
    ) -> Result<(), (f64, f64)> {
        let c = &self.cfg;
        let outline = fp.outline();
        let cell_area = (outline.w / c.nx as f64) * (outline.h / c.ny as f64);
        let injected = fp.total_power().as_watts();
        let mut extracted = 0.0;
        let (nx, ny) = field.dims();
        for j in 0..ny {
            for i in 0..nx {
                extracted +=
                    c.htc_w_per_k_mm2 * cell_area * (field.at(i, j).as_f64() - c.coolant_c);
            }
        }
        let denom = injected.max(1e-12);
        if ((injected - extracted) / denom).abs() <= rel_tol {
            Ok(())
        } else {
            Err((injected, extracted))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehp_package::floorplan::{Floorplan, Layer};
    use ehp_package::geometry::Rect;
    use ehp_power::budget::{PowerDomain, SocketPowerManager, WorkloadProfile};
    use ehp_sim_core::units::Power;

    /// The lexicographic Gauss–Seidel solve this crate shipped before
    /// red-black SOR, run until the max per-sweep update falls below
    /// 1e-10 °C: a differential oracle for [`ThermalSolver::solve`].
    fn gauss_seidel_reference(c: &ThermalConfig, fp: &Floorplan) -> Vec<Vec<f64>> {
        let outline = fp.outline();
        let cell_area = (outline.w / c.nx as f64) * (outline.h / c.ny as f64);
        let p: Vec<Vec<f64>> = fp
            .power_density_grid(c.nx, c.ny)
            .iter()
            .map(|row| row.iter().map(|d| d * cell_area).collect())
            .collect();
        let g = c.lateral_w_per_k;
        let h_cell = c.htc_w_per_k_mm2 * cell_area;
        let mut t = vec![vec![c.coolant_c; c.nx]; c.ny];
        for _ in 0..1_000_000 {
            let mut max_delta: f64 = 0.0;
            for j in 0..c.ny {
                for i in 0..c.nx {
                    let mut nsum = 0.0;
                    let mut ncount = 0.0;
                    if i > 0 {
                        nsum += t[j][i - 1];
                        ncount += 1.0;
                    }
                    if i + 1 < c.nx {
                        nsum += t[j][i + 1];
                        ncount += 1.0;
                    }
                    if j > 0 {
                        nsum += t[j - 1][i];
                        ncount += 1.0;
                    }
                    if j + 1 < c.ny {
                        nsum += t[j + 1][i];
                        ncount += 1.0;
                    }
                    let new_t = (g * nsum + p[j][i] + h_cell * c.coolant_c) / (g * ncount + h_cell);
                    max_delta = max_delta.max((new_t - t[j][i]).abs());
                    t[j][i] = new_t;
                }
            }
            if max_delta < 1e-10 {
                return t;
            }
        }
        panic!("reference solve did not converge");
    }

    /// The MI300A floorplan under one Figure 12 power profile, split
    /// over the chiplets as the figure12 experiment does.
    fn figure12_plan(profile: WorkloadProfile) -> Floorplan {
        let mut pm = SocketPowerManager::new(Power::from_watts(550.0));
        let d = pm.apply_profile(profile);
        let mut fp = Floorplan::mi300a();
        fp.assign_power("xcd", d.get(PowerDomain::ComputeChiplets).scale(0.88));
        fp.assign_power("ccd", d.get(PowerDomain::ComputeChiplets).scale(0.12));
        fp.assign_power(
            "iod",
            d.get(PowerDomain::InfinityCache) + d.get(PowerDomain::DataFabric),
        );
        fp.assign_power("usr", d.get(PowerDomain::UsrPhys));
        fp.assign_power("hbm_phy", d.get(PowerDomain::HbmPhys));
        fp.assign_power(
            "hbm_stack",
            d.get(PowerDomain::HbmDram) + d.get(PowerDomain::Io),
        );
        fp
    }

    fn uniform_plan(watts: f64) -> Floorplan {
        let mut fp = Floorplan::new(Rect::new(0.0, 0.0, 10.0, 10.0));
        fp.add("block", Rect::new(0.0, 0.0, 10.0, 10.0), Layer::Compute);
        fp.assign_power("block", Power::from_watts(watts));
        fp
    }

    fn small_cfg() -> ThermalConfig {
        ThermalConfig {
            nx: 20,
            ny: 20,
            ..ThermalConfig::default()
        }
    }

    #[test]
    fn uniform_power_gives_uniform_analytic_temperature() {
        // With uniform power there is no lateral gradient; every cell
        // sits at T = T_cool + q / h (q in W/mm²).
        let fp = uniform_plan(100.0);
        let cfg = small_cfg();
        let field = ThermalSolver::new(cfg).solve(&fp);
        let expected = cfg.coolant_c + (100.0 / 100.0) / cfg.htc_w_per_k_mm2;
        let (max, _) = field.max();
        let min = field.min();
        assert!((max - expected).abs() < 0.1, "max {max} vs {expected}");
        assert!((max - min).abs() < 0.05, "uniform field");
    }

    #[test]
    fn hotspot_decays_with_distance() {
        let mut fp = Floorplan::new(Rect::new(0.0, 0.0, 20.0, 20.0));
        fp.add("hot", Rect::new(9.0, 9.0, 2.0, 2.0), Layer::Compute);
        fp.assign_power("hot", Power::from_watts(50.0));
        let field = ThermalSolver::new(small_cfg()).solve(&fp);
        let center = field
            .sample(ehp_package::geometry::Point::new(10.0, 10.0))
            .unwrap();
        let near = field
            .sample(ehp_package::geometry::Point::new(13.0, 10.0))
            .unwrap();
        let far = field
            .sample(ehp_package::geometry::Point::new(19.0, 10.0))
            .unwrap();
        assert!(center.as_f64() > near.as_f64());
        assert!(near.as_f64() > far.as_f64());
        assert!(far.as_f64() >= 30.0 - 1e-9, "never below coolant");
    }

    #[test]
    fn energy_balance_at_convergence() {
        let fp = uniform_plan(200.0);
        let solver = ThermalSolver::new(small_cfg());
        let field = solver.solve(&fp);
        solver.check_balance(&fp, &field, 1e-5).unwrap();
    }

    #[test]
    fn matches_gauss_seidel_oracle_on_figure12_profiles() {
        for (nx, ny) in [(35, 28), (70, 28)] {
            let cfg = ThermalConfig {
                nx,
                ny,
                ..ThermalConfig::default()
            };
            for profile in [
                WorkloadProfile::ComputeIntensive,
                WorkloadProfile::MemoryIntensive,
            ] {
                let fp = figure12_plan(profile);
                let field = ThermalSolver::new(cfg).solve(&fp);
                let oracle = gauss_seidel_reference(&cfg, &fp);
                let worst = (0..ny)
                    .flat_map(|j| (0..nx).map(move |i| (i, j)))
                    .map(|(i, j)| (field.at(i, j).as_f64() - oracle[j][i]).abs())
                    .fold(0.0, f64::max);
                assert!(worst <= 1e-4, "{nx}x{ny} {profile:?}: off by {worst} C");
                assert!(
                    field.error_bound_c() <= cfg.tolerance_c,
                    "{nx}x{ny} {profile:?}: bound {}",
                    field.error_bound_c()
                );
                assert!(field.iterations() > 0 && field.iterations() < cfg.max_iters);
            }
        }
    }

    #[test]
    fn error_bound_covers_the_true_error() {
        // The bound is rigorous: the field is never further from the
        // fully converged oracle than it claims, even when capped early
        // (this grid converges in 56 sweeps).
        let cfg = ThermalConfig {
            nx: 35,
            ny: 28,
            ..ThermalConfig::default()
        };
        let fp = figure12_plan(WorkloadProfile::ComputeIntensive);
        let oracle = gauss_seidel_reference(&cfg, &fp);
        for max_iters in [1, 6, 20, cfg.max_iters] {
            let field = ThermalSolver::new(ThermalConfig { max_iters, ..cfg }).solve(&fp);
            let worst = (0..cfg.ny)
                .flat_map(|j| (0..cfg.nx).map(move |i| (i, j)))
                .map(|(i, j)| (field.at(i, j).as_f64() - oracle[j][i]).abs())
                .fold(0.0, f64::max);
            assert!(
                worst <= field.error_bound_c() + 1e-9,
                "max_iters {max_iters}: error {worst} exceeds bound {}",
                field.error_bound_c()
            );
            if max_iters < cfg.max_iters {
                // Capped before converging: the unmet bound is reported.
                assert_eq!(field.iterations(), max_iters);
                assert!(field.error_bound_c() > cfg.tolerance_c);
            }
        }
    }

    #[test]
    fn unpowered_plan_needs_no_sweeps() {
        let field = ThermalSolver::new(small_cfg()).solve(&uniform_plan(0.0));
        assert_eq!(field.iterations(), 0);
        assert_eq!(field.error_bound_c(), 0.0);
        assert_eq!((field.max().0, field.min()), (30.0, 30.0));
    }

    #[test]
    fn more_power_is_hotter() {
        let solver = ThermalSolver::new(small_cfg());
        let cold = solver.solve(&uniform_plan(50.0)).max().0;
        let hot = solver.solve(&uniform_plan(150.0)).max().0;
        assert!(hot > cold + 10.0);
    }

    #[test]
    fn better_cooling_is_cooler() {
        let fp = uniform_plan(100.0);
        let base = ThermalSolver::new(small_cfg()).solve(&fp).max().0;
        let better = ThermalSolver::new(ThermalConfig {
            htc_w_per_k_mm2: 0.04,
            ..small_cfg()
        })
        .solve(&fp)
        .max()
        .0;
        assert!(better < base);
    }

    #[test]
    fn mi300a_gpu_scenario_hotspots_on_xcds() {
        let mut fp = Floorplan::mi300a();
        // Compute-intensive split (Figure 12a): most power in the XCDs.
        fp.assign_power("xcd", Power::from_watts(340.0));
        fp.assign_power("ccd", Power::from_watts(45.0));
        fp.assign_power("iod", Power::from_watts(60.0));
        fp.assign_power("usr", Power::from_watts(20.0));
        fp.assign_power("hbm_phy", Power::from_watts(25.0));
        fp.assign_power("hbm_stack", Power::from_watts(60.0));
        let field = ThermalSolver::new(ThermalConfig::default()).solve(&fp);
        // Mean XCD temperature beats mean HBM temperature.
        let xcd_t = fp
            .regions_matching("xcd")
            .filter_map(|r| field.mean_over(&r.rect))
            .sum::<f64>()
            / 6.0;
        let hbm_t = fp
            .regions_matching("hbm_stack")
            .filter_map(|r| field.mean_over(&r.rect))
            .sum::<f64>()
            / 8.0;
        assert!(
            xcd_t > hbm_t + 5.0,
            "GPU-intensive: XCDs ({xcd_t:.1}C) should be the hotspots vs HBM ({hbm_t:.1}C)"
        );
    }

    #[test]
    #[should_panic(expected = "grid must be non-empty")]
    fn empty_grid_panics() {
        let _ = ThermalSolver::new(ThermalConfig {
            nx: 0,
            ..ThermalConfig::default()
        });
    }
}
