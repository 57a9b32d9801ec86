"""The run plan: every file one CLI run reads or writes, named before it reads.

``make_plan`` turns a run's parsed flags into a ``Plan``: each file it
will read, in read order, and each file it will write, in write order.
Only ``--config`` is read to make it, since a config's ``stopword_path``
names another input.  ``refuse_overwrites`` then holds the plan to the
overwrite rule: no output may be a file the run reads or another of its
outputs.  ``cli`` reads and writes through the plan alone.
"""

from __future__ import annotations

import argparse
import os
import re
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

from .corpus import RunConfig, load_run_config


class Summaries(NamedTuple):
    """Where ``summarize`` writes each trial's summary, as ``.txt`` and ``.json``.

    Both are ``<stem>.<method>.<budget>`` in ``--out-dir``, with ``.tNNN``
    added when the run has more than one trial.  A run may have hundreds of
    trials, so a plan names these files by this rule instead of listing
    them: ``holds`` tests one path against it.
    """

    out_dir: Path
    name: str
    trials: int

    def paths(self, trial: int) -> tuple[Path, Path]:
        """The ``.txt`` and ``.json`` of trial ``trial``."""
        base = f"{self.name}.t{trial:03d}" if self.trials > 1 else self.name
        return self.out_dir / f"{base}.txt", self.out_dir / f"{base}.json"

    def holds(self, path: str | Path) -> bool:
        """Whether ``path`` names a trial's summary: the trial number is read
        from the name, and ``paths`` must give that file.  Like every plan
        check it compares ``os.path.abspath`` strings, never the filesystem."""
        match = re.search(r"(?:\.t([0-9]+))?\.(?:txt|json)\Z", str(path))
        trial = int(match[1] or 0) if match else self.trials
        return trial < self.trials and os.path.abspath(path) in map(os.path.abspath, self.paths(trial))


class Plan(NamedTuple):
    """Every file one run reads or writes.

    ``inputs`` are ``(flag or config key, path)`` pairs in read order, and
    ``outputs`` are ``(flag, path)`` pairs in write order, the manifest
    included.  ``summarize`` writes its trials' summaries first; the plan
    names them by the rule in ``summaries`` (None for the other
    subcommands).  ``cfg`` is a graph subcommand's RunConfig: ``--config``
    with the flags on top.
    """

    inputs: tuple[tuple[str, str], ...]
    outputs: tuple[tuple[str, str | Path], ...]
    cfg: RunConfig | None = None
    summaries: Summaries | None = None


# The flags each evaluate metric reads, in read order.
METRIC_INPUTS = {
    "pyramid": ("--citations", "--annotations", "--summary"),
    "rouge": ("--candidate", "--references"),
    "kappa": ("--citations", "--spans-a", "--spans-b"),
}


def paths_of(args: argparse.Namespace, flag: str) -> list[str]:
    """The paths an evaluate input ``flag`` names in ``args``: none, one, or a list."""
    value = getattr(args, flag[2:].replace("-", "_"))
    return value if isinstance(value, list) else [value] if value else []


def make_plan(args: argparse.Namespace, read: Callable[[str], bytes]) -> Plan:
    """The plan of the run ``args`` asks for: the one place that decides which files it touches.

    ``--config`` is the one input that names another (``stopword_path``), so
    it is read here, through ``read``.  The run reads nothing else until
    ``refuse_overwrites`` has passed its plan.
    """
    if args.command == "evaluate":
        inputs = [(flag, path) for flag in METRIC_INPUTS[args.metric] for path in paths_of(args, flag)]
        return Plan(tuple(inputs), (("--out", Path(f"{args.out}.tsv")), ("--out", Path(f"{args.out}.json"))))
    inputs = []
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    if args.config:
        inputs.append(("--config", args.config))
        cfg = load_run_config(args.config, overrides, read(args.config))
    else:
        cfg = RunConfig(**{k: v for k, v in overrides.items() if v is not None})
    if cfg.stopword_path:
        inputs.append(("--stopwords" if args.stopword_path else "stopword_path", cfg.stopword_path))
    inputs.append(("--in", args.infile))
    annotations = getattr(args, "annotations", None)
    inputs += [(flag, path) for flag, path in (("--idf", args.idf), ("--annotations", annotations)) if path]
    if args.command != "summarize":
        outputs = [("--out", args.out)] if args.command == "cluster" else [("--dot", args.dot)] if args.dot else []
        return Plan(tuple(inputs), tuple(outputs), cfg)
    out_dir, name = Path(args.out_dir), f"{Path(args.infile).stem}.{args.method}.{args.budget}"
    outputs = [("--out-dir", out_dir / f"{name}.report.tsv")] if annotations else []
    outputs += [("--scores-out", args.scores_out)] if args.scores_out else []
    outputs.append(("--out-dir", out_dir / f"{name}.manifest.json"))
    return Plan(tuple(inputs), tuple(outputs), cfg, Summaries(out_dir, name, args.trials or 1))


def refuse_overwrites(plan: Plan, parser: argparse.ArgumentParser) -> None:
    """A usage error (exit 2) if ``plan`` writes over one of its inputs or one of its own outputs.

    Paths are compared by ``os.path.abspath``, as strings: no filesystem
    call, since a pyramid job passes a hundred summaries.  The outputs that
    ``--out-dir`` places are taken first, so a clash with one of them is
    blamed on the flag that named the other file.
    """
    taken = {os.path.abspath(path) for _, path in plan.inputs}
    summaries = plan.summaries
    if summaries:
        for _, path in plan.inputs:
            if summaries.holds(path):
                parser.error(f"--out-dir {path!r} names another file of the run")
    for flag, path in sorted(plan.outputs, key=lambda output: output[0] != "--out-dir"):
        key = os.path.abspath(path)
        if key in taken or (summaries and summaries.holds(path)):
            parser.error(f"{flag} {str(path)!r} names another file of the run")
        taken.add(key)
