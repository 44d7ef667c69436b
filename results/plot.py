#!/usr/bin/env python3
"""Plot the regenerated figures from the CSVs in this directory.

Usage:
    cargo run --release -p bench -- all
    python3 results/plot.py [outdir]

Produces one PNG per paper figure, visually comparable to the originals
(log-scale latency axes, the same series). Requires matplotlib; the CSVs
are the ground truth and render fine in any other tool if it is absent.
"""

import csv
import sys
from pathlib import Path

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    sys.exit("matplotlib not available; the CSVs remain usable as-is")

HERE = Path(__file__).parent
OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else HERE


def read(name):
    with open(HERE / name) as fh:
        rows = list(csv.DictReader(fh))
    return {k: [float(r[k]) for r in rows] for k in rows[0]}


def save(fig, name):
    fig.tight_layout()
    fig.savefig(OUT / name, dpi=150)
    print(f"wrote {OUT / name}")


def figure5():
    d = read("figure5.csv")
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(d["rate"], d["conv_imiss"], "k-", label="Conventional I")
    ax.plot(d["rate"], d["conv_dmiss"], "k--", label="Conventional D")
    ax.plot(d["rate"], d["ldlp_imiss"], "b-", label="LDLP I")
    ax.plot(d["rate"], d["ldlp_dmiss"], "b--", label="LDLP D")
    ax.set_xlabel("Arrival rate (msgs/sec)")
    ax.set_ylabel("Cache misses per message")
    ax.set_title("Figure 5: cache misses vs. arrival rate (Poisson)")
    ax.legend()
    save(fig, "figure5.png")


def figure6():
    d = read("figure6.csv")
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(d["rate"], d["conv_latency_us"], "k-", label="Conventional")
    ax.semilogy(d["rate"], d["ldlp_latency_us"], "b-", label="LDLP")
    ax.set_xlabel("Arrival rate (msgs/sec)")
    ax.set_ylabel("Latency (us)")
    ax.set_title("Figure 6: latency vs. arrival rate (Poisson)")
    ax.legend()
    save(fig, "figure6.png")


def figure7():
    d = read("figure7.csv")
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(d["clock_mhz"], d["conv_latency_us"], "k-", label="Conventional")
    ax.semilogy(d["clock_mhz"], d["ldlp_latency_us"], "b-", label="LDLP")
    ax.set_xlabel("CPU clock (MHz)")
    ax.set_ylabel("Latency (us)")
    ax.set_title("Figure 7: latency vs. CPU speed (self-similar traffic)")
    ax.legend()
    save(fig, "figure7.png")


def figure8():
    d = read("figure8.csv")
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(d["size"], d["elaborate_cold"], "k-", label="4.4BSD, cold")
    ax.plot(d["size"], d["simple_cold"], "b-", label="Simple, cold")
    ax.plot(d["size"], d["elaborate_warm"], "k--", label="4.4BSD, warm")
    ax.plot(d["size"], d["simple_warm"], "b--", label="Simple, warm")
    ax.set_xlabel("Message size (bytes)")
    ax.set_ylabel("Time (CPU cycles)")
    ax.set_title("Figure 8: cache effects in checksum routines")
    ax.legend()
    save(fig, "figure8.png")


def signaling():
    d = read("signaling_goal.csv")
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(d["pairs_per_s"], d["conv_latency_us"], "k-o", label="Conventional")
    ax.semilogy(d["pairs_per_s"], d["ldlp_latency_us"], "b-o", label="LDLP")
    ax.axhline(100, color="gray", linestyle=":", label="100 us goal")
    ax.set_xlabel("Setup/teardown pairs per second")
    ax.set_ylabel("Mean latency (us)")
    ax.set_title("Signalling goal: 10k pairs/sec (Section 1)")
    ax.legend()
    save(fig, "signaling_goal.png")


def main():
    for fn in (figure5, figure6, figure7, figure8, signaling):
        try:
            fn()
        except FileNotFoundError as e:
            print(f"skipping {fn.__name__}: {e}")


if __name__ == "__main__":
    main()
