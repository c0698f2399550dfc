from hypothesis import settings

# Property tests draw the same examples on every run (derandomize) and are
# not timed per example (deadline): examples fit forests, whose run time
# varies with the machine's load.
settings.register_profile("isodist", derandomize=True, deadline=None, database=None)
settings.load_profile("isodist")
