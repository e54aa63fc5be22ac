"""Intrusion detection: signature, anomaly and specification detectors.

The ablation benchmark (E-A3) compares the three classic IDS families on the
same traffic: signature detectors are precise but only catch known patterns;
anomaly detectors catch novel attacks at a false-alarm cost; specification
detectors catch protocol violations exactly but need a protocol model.
"""
