"""Every invocation of the CLI output manifest gives the bytes it records.

``cli_manifest.py`` says what an entry records and how to rewrite the
manifest. The id of an entry whose computation calls neither LAPACK nor
an exponential or logarithm starts with ``portable-``, and the entry is
marked ``portable``: those entries give the same bytes with any numpy
build. The others start with ``platform-``.
"""

import pytest

from cli_manifest import load_manifest, run_entry

ENTRIES = load_manifest()


def test_entry_names_are_unique():
    names = [entry["name"] for entry in ENTRIES]
    assert len(set(names)) == len(names)


PORTABLE = pytest.mark.portable(reason="the computation calls neither LAPACK nor an exponential "
                                       "or logarithm")


@pytest.mark.parametrize("entry", [
    pytest.param(entry, id="platform-" + entry["name"]) if entry["via"] else
    pytest.param(entry, id="portable-" + entry["name"], marks=PORTABLE) for entry in ENTRIES])
def test_entry(entry, tmp_path):
    assert {"name": entry["name"], "argv": entry["argv"], **run_entry(entry["argv"], tmp_path)} == entry
