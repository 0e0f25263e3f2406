//! # ehp-thermal
//!
//! A 2-D steady-state finite-difference thermal solver over a package
//! floorplan — the tool behind Figure 12(b)/(c)'s "thermal simulation
//! results" for the GPU-intensive and memory-intensive scenarios.
//!
//! The model solves, per grid cell,
//!
//! ```text
//! k_lat · Σ(T_neighbour − T) + P_cell − h·A_cell·(T − T_cold) = 0
//! ```
//!
//! i.e. lateral conduction through the silicon/lid plus vertical heat
//! extraction into the cold plate. The solver runs red-black SOR with
//! the over-relaxation factor derived from the grid, and stops on the
//! true residual: since every row of the system sums to `h·A_cell`,
//! `max|residual| / (h·A_cell)` bounds the max temperature error, and
//! each [`TemperatureField`] reports that bound and its sweep count
//! (DESIGN.md §17).
//!
//! ## Example
//!
//! ```
//! use ehp_package::floorplan::Floorplan;
//! use ehp_sim_core::units::Power;
//! use ehp_thermal::{ThermalConfig, ThermalSolver};
//!
//! let mut fp = Floorplan::mi300a();
//! fp.assign_power("xcd", Power::from_watts(340.0));
//! let field = ThermalSolver::new(ThermalConfig::default()).solve(&fp);
//! assert!(field.max().0 > 40.0); // well above coolant temperature
//! assert!(field.error_bound_c() <= ThermalConfig::default().tolerance_c);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod field;
pub mod solver;

pub use field::TemperatureField;
pub use solver::{ThermalConfig, ThermalSolver};
