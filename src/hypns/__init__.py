"""Pseudo-spectral solvers and energy diagnostics for the damped-wave
relaxation of incompressible Navier-Stokes on the periodic torus.

Names are imported from the submodules, for example
``from hypns.experiments import run_convergence``."""
