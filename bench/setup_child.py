"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Set-up is what a user pays before the first round: importing domainlearn,
generating the block's templates and building its sessions and learners.

    python3 bench/setup_child.py <workload> <seed>
"""

import sys
import time


def main() -> None:
    started = time.perf_counter()
    from workloads import WORKLOADS
    from domainlearn.experiments import build_session
    from domainlearn.learners import make_learner

    for config in WORKLOADS[sys.argv[1]].configs(int(sys.argv[2])):
        session, _ = build_session(config)
        make_learner(config.learner, session)
    print(time.perf_counter() - started)


if __name__ == "__main__":
    main()
