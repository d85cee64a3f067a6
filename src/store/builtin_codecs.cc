// The model codecs of the two paper methods and CodecByTag, which picks
// one by snapshot method tag. This is the only store-layer file that
// knows the concrete codecs — the persistence mirror of
// api/builtin_methods.cc.
#include "src/fwd/codec.h"
#include "src/n2v/codec.h"
#include "src/store/model_codec.h"

namespace stedb::store {

Result<const ModelCodec*> CodecByTag(uint32_t method_tag) {
  static const fwd::ForwardModelCodec kForward{};
  static const n2v::Node2VecModelCodec kNode2Vec{};
  if (method_tag == kForward.method_tag()) return &kForward;
  if (method_tag == kNode2Vec.method_tag()) return &kNode2Vec;
  return Status::NotFound("no model codec for snapshot method tag '" +
                          FourCcToString(method_tag) +
                          "' (known: forward, node2vec)");
}

}  // namespace stedb::store
