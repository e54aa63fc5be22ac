"""Sensor substrate: camera, GNSS, ultrasonic, detection AI, fusion.

The paper's threat survey (Section IV-C) and SOTIF discussion (Section III-C)
both revolve around sensor behaviour: occlusion by terrain and canopy, weather
degradation, and attacks on GNSS and cameras.  The models here expose exactly
those failure modes through a small common interface
(:class:`repro.sensors.base.Sensor`).
"""
