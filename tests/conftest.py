from hypothesis import settings

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# property test cannot pass on one push and fail on the next; local runs keep
# the default random seeds.
settings.register_profile("ci", derandomize=True)
