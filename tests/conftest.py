"""Hypothesis profiles: Tier-1 is a function of the tree.

``tier1`` (loaded here, so it is what a plain ``pytest`` run uses) draws
the same examples on every run and keeps no example database, so two
checkouts of one commit give the same pass set.  ``fuzz`` (``make
fuzz``, i.e. ``--hypothesis-profile=fuzz``) is where new
counter-examples are hunted: fresh draws from a seed the Makefile
prints, 200 examples for every test that does not pin its own budget,
failures kept in ``.hypothesis/`` and printed as ``@reproduce_failure``
blobs.  Each one found is pinned as an ``@example`` on its test.
"""

from hypothesis import settings
from hypothesis.database import DirectoryBasedExampleDatabase

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile(
    "fuzz",
    max_examples=200,
    database=DirectoryBasedExampleDatabase(".hypothesis/examples"),
    print_blob=True,
)
settings.load_profile("tier1")
