"""Record the SHA-256 of every output the benchmark compares byte for byte.

Run from the root of a checkout whose engine output is the reference:

    python3 perfbench/record_digests.py

It runs the WMT24 commands and the fixed-seed synthetic inputs once each
through the CLI and writes perfbench/digests.json.  Rerun it only when a
change to the output bytes is intended.
"""

from __future__ import annotations

import json
import shutil

import run


def main() -> None:
    work = run.STATE / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    canary = work / "canary"
    run.gen.write_campaign(canary / "campaign", *run.CAMPAIGN_SHAPE, run.CANARY_SEED)
    run.make_wide_inputs(canary / "wide", run.CANARY_SEED)
    groups = {
        "wmt24": run.wmt24_commands(work),
        "campaign": run.campaign_commands(canary / "campaign", canary / "campaign"),
        "wide-verify": run.wide_commands(canary / "wide"),
    }
    digests = {}
    with run.Runner(work) as runner:
        for name, commands in groups.items():
            digests[name] = {}
            for command in commands:
                output, _, _ = runner.child(command)
                if output.code != 0:
                    raise SystemExit(f"{name} {command.label}: exit code {output.code}")
                digests[name][command.label] = output.digests()
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
