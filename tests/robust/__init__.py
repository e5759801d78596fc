"""Tests for the repro.robust health checks."""
