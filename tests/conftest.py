from hypothesis import settings

# Deterministic examples and no per-example deadline: a property runs the same
# examples on every run, and a slow host cannot fail it on timing.
settings.register_profile("curvlens", deadline=None, derandomize=True)
settings.load_profile("curvlens")
