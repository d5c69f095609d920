"""Same-host benchmark for the repro simulator (see README.md)."""
