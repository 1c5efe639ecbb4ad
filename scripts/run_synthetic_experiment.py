#!/usr/bin/env python3
"""End-to-end desk-scale experiment: synthesize a dataset, train with
cross-validation, evaluate one fold's checkpoint, and export connectome
summaries. Everything goes through the CLI so the run is reproducible from
the resolved-config snapshots it leaves behind."""

import argparse
import sys
from pathlib import Path

from mlcgcn.cli import main as mlcgcn_main


def run(argv):
    print("+ mlcgcn " + " ".join(argv), file=sys.stderr)
    rc = mlcgcn_main(argv)
    if rc != 0:
        sys.exit(rc)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="experiments/synthetic")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--levels", type=int, default=2)
    return parser.parse_args()


def main():
    args = parse_args()
    work = Path(args.workdir)
    data_dir = work / "data"
    train_dir = work / "train"

    run([
        "synth", "--out", str(data_dir), "--force",
        "--set", f"synth.seed={args.seed}",
    ])
    run([
        "train", "--manifest", str(data_dir / "manifest.json"),
        "--out", str(train_dir),
        "--set", f"model.levels={args.levels}",
        "--set", "model.embed_len=32",
        "--set", "model.hidden_size=32",
        "--set", "model.gcn_hidden=32",
        "--set", "model.readout_dim=32",
        "--set", f"train.epochs={args.epochs}",
        "--set", f"train.seed={args.seed}",
    ])
    run([
        "eval", "--checkpoint", str(train_dir / "fold0.ckpt"),
        "--manifest", str(data_dir / "manifest.json"),
        "--out", str(work / "eval"),
    ])
    run([
        "export", "--checkpoint", str(train_dir / "fold0.ckpt"),
        "--manifest", str(data_dir / "manifest.json"),
        "--out", str(work / "export"),
    ])
    print(f"done; artifacts under {work}")


if __name__ == "__main__":
    main()
