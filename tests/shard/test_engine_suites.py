"""The engine-agnostic suites, collected again on the routers.

The paper's figures, the pointer semantics, ``version_as_of``, the
query layer and the ``transaction()`` exit rules are written against the ``engine`` fixture (``db`` is the
same object) and run on the embedded database in their own modules.  Importing their tests here and
setting ``ENGINE_KINDS`` runs every one of them on a one-shard and a
four-shard router as well: one engine surface, three engines.
"""

from tests.conftest import ENGINES
from tests.core.test_pointers import *  # noqa: F401,F403
from tests.core.test_query import *  # noqa: F401,F403
from tests.core.test_transaction_context import *  # noqa: F401,F403
from tests.core.test_version_as_of import *  # noqa: F401,F403
from tests.integration.test_paper_scenarios import *  # noqa: F401,F403

ENGINE_KINDS = tuple(kind for kind in ENGINES if kind != "database")
