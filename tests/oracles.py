"""Exact reference quantities of a non-adaptive decoder, for the tests."""

from fractions import Fraction


def output_distribution(decoder, w, i):
    """Exact output distribution of decoder(i) on oracle w over its coin space."""
    dist = {}
    for weight, view in decoder.views[i]:
        out = view.read_and_evaluate(w)
        dist[out] = dist.get(out, Fraction(0)) + weight
    return dist


def wrong_rate(decoder, w, i, true_bit):
    """Exact probability that decoder(i) on w outputs the wrong bit (not REJECT)."""
    return output_distribution(decoder, w, i).get(1 - true_bit, Fraction(0))
