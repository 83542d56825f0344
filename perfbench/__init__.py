"""The repository benchmark: headline16, storm256 and verify.

Run ``python3 perfbench/run.py --workload <name>`` from the repository
root; see ``perfbench/README.md`` for what each workload and metric means.
"""
