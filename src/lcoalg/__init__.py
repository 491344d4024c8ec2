"""Exact arithmetic for finite-dimensional coalgebras carrying several
coproducts: axiom checking, entanglement constructions, convolution
brackets, boundary complexes, word rewriting, and a small text format with
a command-line front end.  Import each name from the module that defines
it: this file loads none of them."""
