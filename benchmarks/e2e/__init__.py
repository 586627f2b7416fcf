"""End-to-end benchmark of the repro converter and service (see README.md)."""
