#include "base/cancel.h"

namespace desyn::detail {

thread_local constinit const CancelToken* t_cancel = nullptr;

}  // namespace desyn::detail
