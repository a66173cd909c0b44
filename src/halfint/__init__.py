"""Exact coefficient tables for a weight-13/2 Hecke cusp form, central values
of the quadratic twists of its weight-12 lift, an Euler-product mollifier,
the exponential-sum toolkit behind their analysis, and a CLI that tabulates
sign-change statistics of the coefficients."""

__version__ = "0.1.0"
