"""Discrete-event simulation kernel and the forestry worksite world.

The kernel (:mod:`repro.sim.engine`) is a classic event-heap discrete-event
simulator with deterministic tie-breaking.  On top of it the subpackage builds
the partially-autonomous forestry worksite of the paper's Figure 1: terrain
with tree occluders (:mod:`repro.sim.world`), weather dynamics
(:mod:`repro.sim.weather`), and kinematic agents — the autonomous forwarder,
the observation drone, the manually-operated harvester and human workers.
"""
