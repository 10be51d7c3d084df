"""Check that the MLP path folds its sums left to right on this interpreter.

Run with any Python >= 3.10 from the repository root or elsewhere:

    python3.13 tests/fold_guard.py

It imports ``prefnet`` from ``src/`` next to this file and needs only the
standard library.  One sigmoid unit gets the synapses ``1e16, 1.0, -1e16``
from three inputs set to 1.  Folded left to right, ``1e16 + 1.0`` rounds
back to ``1e16``, so the induced field is exactly ``0.0``; the compensated
``sum()`` of Python 3.12 and later gives ``1.0``.  The extracted KB's
weight must equal that field bit for bit, and strict verification must
pass.  Exit status 0 means all three hold; any failure names the check.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from prefnet import (  # noqa: E402
    ZADEH,
    Network,
    StimulusSet,
    Unit,
    build_fuzzy_interp,
    extract_kb,
    forward,
    fuzzy_weight,
    verify_strict_coherence,
)


def main() -> int:
    synapses = (("a", 1e16), ("b", 1.0), ("c", -1e16))
    net = Network(
        inputs=("a", "b", "c"),
        units=(Unit("u", "sigmoid", 0.0, synapses),),
        c_units=("u",),
    )
    stimuli = StimulusSet(ids=("s",), values={"s": {"a": 1.0, "b": 1.0, "c": 1.0}})
    table = forward(net, stimuli)
    field = table.u("s", "u")
    weight = fuzzy_weight(extract_kb(net), build_fuzzy_interp(net, stimuli, table), ZADEH, "u", "s")
    failures = []
    if field.hex() != (0.0).hex():
        failures.append(f"induced field is {field!r}, not 0.0")
    if weight.hex() != field.hex():
        failures.append(f"weight {weight!r} differs from field {field!r}")
    if not verify_strict_coherence(net, stimuli).ok:
        failures.append("strict verification failed")
    version = ".".join(map(str, sys.version_info[:3]))
    for failure in failures:
        print(f"python {version}: {failure}")
    if not failures:
        print(f"python {version}: folds are left to right")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
