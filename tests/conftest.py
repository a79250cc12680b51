from hypothesis import settings

# Property tests run the same examples on every run and keep no example
# database, so the suite's result depends on the code alone.
settings.register_profile("polylearn", deadline=None, derandomize=True, database=None)
settings.load_profile("polylearn")
