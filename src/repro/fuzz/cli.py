"""CLI plumbing for ``python -m repro fuzz`` (run / repro / shrink).

Exit codes follow the repo convention: 0 when the command's check
passed (campaign fully expected, reproducer reproduced, shrink
succeeded), 1 when the check failed (unexpected classifications, a
reproducer that no longer reproduces), 2 for usage or configuration
errors (unreadable file, nothing to shrink, bad parameters).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, Optional, Tuple

from ..errors import ConfigError
from .campaign import CampaignConfig, run_campaign
from .case import FuzzCase, run_case
from .shrink import shrink_case

__all__ = ["add_fuzz_arguments", "run_fuzz"]


def add_fuzz_arguments(parser) -> None:
    """Attach the fuzz action subparsers to the ``fuzz`` command."""
    sub = parser.add_subparsers(dest="action", required=True)

    p = sub.add_parser("run", help="run a seeded fuzzing campaign")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default: 0)")
    p.add_argument("--cases", type=int, default=200, metavar="N",
                   help="number of cases (default: 200)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker subprocesses (default: 1, in-process)")
    p.add_argument("--timeout", type=float, default=60.0, metavar="S",
                   help="per-case deadline with --jobs > 1 (default: 60s)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="manifest + reproducer directory (default: none)")
    p.add_argument("--no-resume", action="store_true",
                   help="re-run cases already present in the manifest")
    p.add_argument("--shrink", action="store_true",
                   help="shrink each unexpected case before reporting it")
    p.add_argument("--masters", type=int, default=2, metavar="N",
                   help="masters per trace case (default: 2)")
    p.add_argument("--fabric", default="atomic",
                   choices=("atomic", "split", "directory"),
                   help="coherence fabric for trace cases (default: atomic)")
    p.add_argument("--p-deadlock", type=float, default=0.1,
                   help="fraction of Fig 4 deadlock-scenario cases")
    p.add_argument("--p-unwrapped", type=float, default=0.3,
                   help="fraction of trace cases with wrappers forced off")
    p.add_argument("--p-fault", type=float, default=0.15,
                   help="fraction of trace cases with a fault armed")

    p = sub.add_parser("repro", help="replay a reproducer file")
    p.add_argument("file", help="reproducer JSON (from a campaign or shrink)")

    p = sub.add_parser("shrink", help="minimise a failing case")
    p.add_argument("file", help="reproducer JSON (or bare case dict)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the shrunk reproducer here")
    p.add_argument("--max-tests", type=int, default=500,
                   help="probe budget (default: 500)")


def _load_case(path: str) -> Tuple[FuzzCase, Optional[Dict[str, Any]]]:
    """A case plus its recorded result (if any) from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except ValueError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    if "case" in data:
        return FuzzCase.from_dict(data["case"]), data.get("result")
    if "seed" in data:  # a bare case dict
        return FuzzCase.from_dict(data), None
    raise ConfigError(f"{path}: neither a reproducer nor a case dict")


def _cmd_run(args) -> int:
    config = CampaignConfig(
        seed=args.seed,
        n_cases=args.cases,
        workers=args.jobs,
        timeout_s=args.timeout,
        out_dir=args.out,
        resume=not args.no_resume,
        n_masters=args.masters,
        p_deadlock=args.p_deadlock,
        p_unwrapped=args.p_unwrapped,
        p_fault=args.p_fault,
        fabric=args.fabric,
    )

    def progress(done, total, entry):
        result = entry["result"]
        if not result.get("expected", False):
            case = FuzzCase.from_dict(entry["case"])
            print(
                f"UNEXPECTED case {entry['index']}: {case.describe()} -> "
                f"{result['outcome']} (allowed: "
                f"{', '.join(result['allowed'])})",
                file=sys.stderr,
            )
        elif done % 100 == 0 or done == total:
            print(f"  {done}/{total} cases", file=sys.stderr)

    result = run_campaign(config, progress=progress)
    print(result.summary())
    if args.shrink and result.unexpected:
        for entry in result.unexpected:
            case = FuzzCase.from_dict(entry["case"])
            shrunk = shrink_case(
                case, target_outcome=entry["result"]["outcome"]
            )
            print(f"  case {entry['index']}: {shrunk.summary()}")
            if entry.get("reproducer"):
                shrunk_path = entry["reproducer"].replace(
                    ".json", ".shrunk.json"
                )
                # The shrunk case's own result: its detail (failure
                # time, first violation) differs from the original's.
                _write_json(shrunk_path, {
                    "campaign_seed": result.seed,
                    "index": entry["index"],
                    "case": shrunk.shrunk.to_dict(),
                    "result": run_case(shrunk.shrunk).to_dict(),
                    "shrink": shrunk.to_dict(),
                })
                print(f"    shrunk reproducer: {shrunk_path}")
    if result.unexpected:
        for entry in result.unexpected:
            if entry.get("reproducer"):
                print(f"  reproducer: {entry['reproducer']}", file=sys.stderr)
        return 1
    return 0


def _cmd_repro(args) -> int:
    case, recorded = _load_case(args.file)
    result = run_case(case)
    print(case.describe())
    print(f"outcome: {result.outcome} ({result.detail})")
    if recorded is not None:
        expected = recorded.get("outcome")
        if result.outcome != expected:
            print(
                f"DOES NOT REPRODUCE: recorded outcome was {expected!r}",
                file=sys.stderr,
            )
            return 1
        if recorded.get("detail") not in (None, result.detail):
            print(
                "reproduced the outcome but not the detail "
                f"(recorded: {recorded['detail']!r})",
                file=sys.stderr,
            )
            return 1
        print("reproduced byte-identically")
        return 0
    return 0 if result.expected else 1


def _cmd_shrink(args) -> int:
    case, recorded = _load_case(args.file)
    target = recorded.get("outcome") if recorded else None
    if target is None:
        target = run_case(case).outcome
    if target == "clean":
        print(f"repro fuzz shrink: {args.file} runs clean -- "
              "nothing to shrink", file=sys.stderr)
        return 2
    result = shrink_case(case, target_outcome=target,
                         max_tests=args.max_tests)
    print(result.summary())
    print(f"shrunk case: {result.shrunk.describe()}")
    if args.out:
        _write_json(args.out, {
            "case": result.shrunk.to_dict(),
            "result": {"outcome": result.outcome},
            "shrink": result.to_dict(),
        })
        print(f"written to {args.out}")
    return 0


def _write_json(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_fuzz(args) -> int:
    """Dispatch one ``repro fuzz`` action; returns the exit code."""
    if args.action == "run":
        return _cmd_run(args)
    if args.action == "repro":
        return _cmd_repro(args)
    return _cmd_shrink(args)
