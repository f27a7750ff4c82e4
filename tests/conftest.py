"""Suite-wide Hypothesis settings.

derandomize=True fixes each property's examples (it also turns off the
example database), so a run does not depend on .hypothesis/ left by an
earlier one; deadline=None because host load, not the code, sets how
long an example takes.
"""

from hypothesis import settings

settings.register_profile("ospsim", derandomize=True, deadline=None)
settings.load_profile("ospsim")
