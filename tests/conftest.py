"""One hypothesis profile for the whole suite: every property test draws
the same examples on every run (derandomize, no example database), and
no example fails for taking long on a slow or shared machine."""

from hypothesis import settings

settings.register_profile("mirrorcalc", derandomize=True, database=None, deadline=None)
settings.load_profile("mirrorcalc")
