"""`python -m hilbcalc`: the same command line as `hilbcalc`."""

import sys

from hilbcalc.cli import main

sys.exit(main())
