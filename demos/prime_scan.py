"""Batch scans: one invariant, many primes, machine-readable output.

The `charp scan` subcommand sweeps a prime range and emits one CSV row
per (prime, invariant) pair. This drives it in-process twice: a
threshold and stabilization sweep, and a full jump listing. Rows arrive
in ascending prime order, and reruns agree byte for byte except in the
`wall_ms` column, the measured time of each row; drop that column before
diffing output across code or parameter changes.
"""

from charp.cli import main as charp_main

QUINTIC = ["--vars", "x,y,z", "-f", "x^5 + y^5 + z^5"]


def main():
    print("# fpt and hsl, p in 2..19")
    charp_main(["scan", "--primes", "2..19", *QUINTIC, "--report", "fpt,hsl"])
    print()
    print("# all certified jumps below 1, p in 2..7 (deeper resolution)")
    charp_main(
        ["scan", "--primes", "2..7", *QUINTIC,
         "--report", "jumps", "--resolution-e", "4"]
    )


if __name__ == "__main__":
    main()
