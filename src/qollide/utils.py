"""Small shared helpers for deterministic text output."""

from __future__ import annotations


def fmt_complex(z):
    """Format a complex number as ``a+bj``, which the bath CSV reader
    (numpy's complex parse) and ``complex()`` read back bit for bit."""
    z = complex(z)
    re = 0.0 if z.real == 0.0 else z.real
    im = 0.0 if z.imag == 0.0 else z.imag
    sign = "+" if not (im < 0.0) else "-"
    return f"{re:.17g}{sign}{abs(im):.17g}j"
