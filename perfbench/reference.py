"""A fixed amount of work, run as a child between the program's children to
sample how fast the host is at that moment.

    python3 perfbench/reference.py

It imports numpy and runs a loop that mixes interpreted arithmetic with small
numpy operations, the same mix as the program's SMO loops and process start.
It does the same work on every call and touches no file; the benchmark times
it from spawn until exit. Its duration moves only with the host, so the
benchmark scales the program's times by it (see ``run.HostClock``).
"""
import numpy as np


def main() -> float:
    rng = np.random.default_rng(0)
    kernel = rng.normal(size=(64, 64))
    alphas = np.zeros(64)
    total = 0.0
    for step in range(45000):
        i = step % 64
        grad = float(kernel[i] @ alphas) - 1.0
        alphas[i] = min(1.0, max(0.0, alphas[i] - 0.01 * grad))
        total += (i * i) % 7 + abs(grad)
    return total


if __name__ == "__main__":
    main()
