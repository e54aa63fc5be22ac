"""Simulation-validity tooling (Section III-D).

"One of the crucial challenges we are targeting is ensuring the validity and
representativeness of the simulation data compared to the real world."

The toolchain: a *reference model* stands in for field measurements (a
differently-parameterised, noisier generator of the same observables); the
*validation procedure* compares distributions of sim observables against the
reference with KS / Wasserstein / histogram-KL statistics per observable and
issues a pass/fail verdict against declared tolerances.
"""
