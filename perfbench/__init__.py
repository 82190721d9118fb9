"""Benchmark of pntap: see README.md and run.py."""
