"""Record perfbench/digests.json: sha256 digests of the canonical corpus
results, the proofs outputs and each family member.  Run it only when an
output change is deliberate:

    python3 perfbench/record_digests.py
"""

import json
import random

from run import HERE, corpus_inputs, family_inputs, launch


def main() -> None:
    rng = random.Random(0)
    jobs = [("corpus", next(corpus_inputs(rng))), ("proofs", {}),
            ("family", next(family_inputs(rng)))]
    digests = {}
    for workload, inputs in jobs:
        _, res = launch({"workload": workload, "mode": "pass",
                         "trace": False, "inputs": inputs})
        digests.update(res["digests"])
    path = HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path}")


if __name__ == "__main__":
    main()
