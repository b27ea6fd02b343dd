import sys

from .runner import main

sys.exit(main())
