"""End-to-end benchmark of the repro QP stack (see README.md)."""
