import sys

from benchmarks.pipeline.run import main

sys.exit(main())
