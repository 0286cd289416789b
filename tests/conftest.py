"""Settings shared by every test module."""

from hypothesis import settings

# A failing property prints the @reproduce_failure line that replays it.
# Every other setting, example counts and deadlines included, is inherited
# unchanged from the profile already in force.
settings.register_profile("aqr", parent=settings(), print_blob=True)
settings.load_profile("aqr")
